//! The front door: shape-routed lanes, deadline micro-batching dispatchers,
//! bounded-queue backpressure, load shedding, and graceful shutdown.
//!
//! # Lane lifecycle
//!
//! A **lane** is the unit of coalescing: one compiled
//! [`PlannedScan`](bppsa_core::PlannedScan) (planned from the first chain of
//! its shape), one [`BatchedBackward`] (workspace pool) and one dispatcher
//! thread. [`BppsaService::submit`] routes each request to the lane whose
//! shape key matches the chain — an MRU store capped at
//! [`ServeConfig::max_lanes`], so a new shape beyond the cap evicts the
//! least recently used lane. An evicted lane is *closed*, not killed: its
//! dispatcher drains every pending request, completes the tickets, and
//! exits; submitters racing the eviction observe the closed queue and
//! transparently re-route (which re-creates the lane).
//!
//! Lane **bring-up is non-blocking**: a never-seen shape inserts only a
//! *placeholder* (shape key + bounded queue + metrics) under the router
//! lock; the expensive part — symbolic planning and workspace-pool
//! construction — runs on the new lane's own dispatcher thread, so
//! submitters of *other* shapes route untouched while the cold lane warms.
//! While a lane is [`Warming`](LaneState::Warming), blocking submits queue
//! as usual (parking on the lane's condvar only when the bounded queue
//! fills), and [`BppsaService::try_submit`] refuses with
//! [`SubmitError::LaneWarming`] so non-blocking callers can route traffic
//! elsewhere. The full per-lane state machine is `Warming → Live →
//! Draining → Retired` (see [`LaneState`]).
//!
//! # Deadline policy
//!
//! Each lane's dispatcher coalesces its queue into
//! [`BatchedBackward::execute`] fan-outs: it flushes as soon as
//! [`ServeConfig::max_batch`] requests are pending, or when the **earliest**
//! pending deadline (a request's submit time + its delay budget — arrival
//! order does not order deadlines) expires, whichever comes first. A single
//! request therefore never waits longer
//! than its own delay budget, and a full batch never waits at all. This is
//! the trade the paper's parallel-scan backward wants: a bounded, tunable
//! latency cost buys wide batches that keep the `O(log n)` critical path
//! fed with per-request parallelism. Every flush is attributed to a
//! [`FlushCause`] in the lane's metrics.
//!
//! # Backpressure, shedding, and shutdown
//!
//! Every lane queue is bounded by [`ServeConfig::queue_cap`]:
//! [`BppsaService::submit`] blocks until the dispatcher drains room (memory
//! stays bounded by `queue_cap` chains + the workspace pool), while
//! [`BppsaService::try_submit`] returns [`SubmitError::Backpressure`]
//! instead. A [`ShedPolicy`] turns blocking into refusal for requests that
//! are doomed anyway: beyond a queue-depth threshold, with a delay budget
//! the lane's warm-up would consume before the first flush
//! ([`SubmitError::Shed`]), or with a budget the lane's measured flush
//! latency says it cannot meet ([`SubmitError::Infeasible`]). Every one of
//! these lane-level decisions — and the warming and backpressure refusals
//! — is made by the pure [`admit`](crate::admit), in one precedence
//! order; a refusal hands the chain back and the lane's counters record
//! it. [`BppsaService::shutdown`] (also run
//! on drop) closes the router and every lane, then joins the dispatchers —
//! each drains its pending requests first, so every accepted request
//! completes and every waiter wakes; only *new* submissions are refused
//! with [`SubmitError::Shutdown`], handing the chain back.
//!
//! # Failure domains & supervision
//!
//! Failure handling is layered by *blast radius*. A panic inside one batch
//! job is caught per flush and attributed per request
//! ([`ServeError::BatchPanicked`]); a panic inside warm-up planning fails
//! the lane's accepted queue ([`ServeError::PlanPanicked`]); a dispatcher
//! dying **outside** every guard is caught by a drop-guard supervisor that
//! fails everything the lane still held ([`ServeError::LaneDied`]) instead
//! of hanging waiters. A lane whose batches panic
//! [`BreakerPolicy::max_consecutive_panics`] times in a row trips its
//! circuit breaker: the lane exits [`LaneState::Quarantined`] and its
//! *shape* enters cool-down — new submits are refused with
//! [`SubmitError::Quarantined`] until the cool-down elapses, after which
//! exactly one **half-open probe** lane tests recovery (one clean flush
//! restores the shape; one panic re-trips it). Under
//! [`DeadlinePolicy::Hard`], requests already past their deadline at
//! batch-assembly time fail with [`ServeError::DeadlineExceeded`] instead
//! of executing late. All of it is exercised on purpose through the
//! seeded/scripted [`FaultInjector`](crate::FaultInjector)
//! ([`ServeConfig::faults`]), and transient refusals are absorbed by the
//! config's [`RetryPolicy`] via [`BppsaService::submit_retrying`].
//!
//! # Observability
//!
//! [`BppsaService::metrics`] snapshots every lane ever created (retired
//! lanes included): submit/shed/flush counts, flush causes, batch-size
//! histogram, queue depth, plan/warm-up time, and the failure counters
//! (batch panics, breaker trips, deadline expiries, dispatcher deaths).
//! Terminal lanes beyond [`RETIRED_METRICS_CAP`] fold into a
//! [`RetiredRollup`](crate::RetiredRollup)
//! ([`BppsaService::metrics_rollup`]) so unbounded shape churn cannot grow
//! the registry forever. See [`LaneMetricsSnapshot`].

use crate::fault::{FaultInjector, InjectionPoint};
use crate::metrics::{FlushCause, LaneMetrics, LaneMetricsSnapshot, LaneState, RetiredRollup};
use crate::overload::{admit, FeasibilityPolicy, LaneAdmission, LaneView, WatchdogPolicy};
use crate::retry::RetryPolicy;
use crate::ticket::{ServeError, Ticket, TicketShared};
use bppsa_core::{
    chain_matches_shape, BatchedBackward, BppsaOptions, JacobianChain, MemoryBudget, Mru,
    PlannedScan, ScanElement,
};
use bppsa_scan::global_pool;
use bppsa_sparse::SparsityPattern;
use bppsa_tensor::Scalar;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// When to refuse a request at submit time instead of queueing it — load
/// shedding for requests that are overwhelmingly likely to miss their
/// deadline anyway. Disabled by default.
///
/// Shedding is per lane and synchronous: a shed request never enters the
/// queue, its chain is handed back in [`SubmitError::Shed`], and the lane's
/// shed counter ([`LaneMetricsSnapshot::shed`]) records the refusal.
/// [`admit`](crate::admit) applies every threshold here, in its precedence
/// order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShedPolicy {
    /// Refuse when the target lane already has this many requests queued.
    /// Must be non-zero when set. Values above [`ServeConfig::queue_cap`]
    /// are inert (the queue can never get that deep); at exactly
    /// `queue_cap`, a full queue *sheds* non-seeding requests where
    /// blocking backpressure would otherwise have parked them — an armed
    /// policy prefers refusal over waiting.
    pub max_queue_depth: Option<usize>,
    /// Deadline feasibility during bring-up: refuse a request whose delay
    /// budget is below this while its lane is still
    /// [`Warming`](LaneState::Warming) — the warm-up (symbolic planning +
    /// workspace construction) would consume the budget before the first
    /// flush could run. The request that *seeds* a lane's warm-up is
    /// exempt (it is the template the plan is built from). Applies to
    /// blocking submits only: non-blocking submits to a warming lane are
    /// refused earlier with [`SubmitError::LaneWarming`], which is not
    /// counted as a shed.
    pub min_warming_delay: Option<Duration>,
    /// Deadline feasibility in steady state: refuse a request whose delay
    /// budget the lane's own measured flush latency says cannot be met —
    /// predicted wait (queue depth, batch width, EWMA flush latency, see
    /// [`predicted_wait`](crate::predicted_wait)) strictly exceeding the
    /// budget refuses with [`SubmitError::Infeasible`] (not counted as a
    /// shed — [`LaneMetricsSnapshot::infeasible`] records it separately).
    /// Inert until the lane has served
    /// [`FeasibilityPolicy::min_flushes`] flushes, so a cold estimator
    /// never refuses anything.
    pub feasibility: Option<FeasibilityPolicy>,
}

impl ShedPolicy {
    /// Never shed (the default): requests queue or block under plain
    /// backpressure.
    pub fn disabled() -> Self {
        Self::default()
    }

    fn validate(&self) {
        if let Some(depth) = self.max_queue_depth {
            assert!(depth >= 1, "ShedPolicy: max_queue_depth must be >= 1");
        }
    }
}

/// Per-lane circuit breaker: after this many *consecutive* batch panics the
/// lane stops serving and quarantines its shape. Disabled by default.
///
/// Breaking exists to stop a poisoned shape from thrashing
/// evict → replan → panic forever: without it, a shape whose every batch
/// panics keeps its lane live (each panic fails only its own batch) and
/// keeps accepting traffic. With a breaker armed, the tripped lane exits
/// [`LaneState::Quarantined`], its still-queued requests fail with
/// [`ServeError::LaneQuarantined`], and new submits of the shape are
/// refused up front with [`SubmitError::Quarantined`] until
/// [`BreakerPolicy::cooldown`] elapses — then exactly one **half-open
/// probe** lane is created for the shape (its breaker threshold is 1): one
/// clean flush restores the shape to full service, one panic re-trips the
/// quarantine for another cool-down. A warm-up plan panic on a
/// breaker-armed lane trips the quarantine immediately (threshold 1 —
/// nothing can execute without a plan).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerPolicy {
    /// Trip after this many uninterrupted batch panics (`None` disables the
    /// breaker). Must be non-zero when set. Probe lanes always use an
    /// effective threshold of 1, whatever is configured here.
    pub max_consecutive_panics: Option<u32>,
    /// How long a tripped shape is refused before the half-open probe.
    pub cooldown: Duration,
}

impl BreakerPolicy {
    /// Never trip (the default): a panicking lane keeps serving, each panic
    /// failing only its own batch.
    pub fn disabled() -> Self {
        Self {
            max_consecutive_panics: None,
            cooldown: Duration::from_millis(100),
        }
    }

    fn validate(&self) {
        if let Some(n) = self.max_consecutive_panics {
            assert!(n >= 1, "BreakerPolicy: max_consecutive_panics must be >= 1");
        }
    }
}

impl Default for BreakerPolicy {
    fn default() -> Self {
        Self::disabled()
    }
}

/// What happens to a request that is already past its deadline when its
/// batch is assembled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DeadlinePolicy {
    /// Execute late (the default): the deadline only *times the flush*; a
    /// request whose budget expired still runs in the next batch.
    #[default]
    Soft,
    /// Fail late requests at flush with [`ServeError::DeadlineExceeded`]
    /// instead of executing them — for callers that cannot use a stale
    /// gradient. A request is failed only when it is past its deadline by
    /// **more than `grace`** at batch-assembly time: the request whose
    /// deadline *triggered* the flush is, by construction, exactly at its
    /// deadline when assembly starts, so a zero grace would fail every
    /// deadline-flushed request. Pick a grace above scheduling jitter
    /// (tens of microseconds to a few milliseconds) and below the
    /// staleness the caller can tolerate.
    Hard {
        /// Lateness tolerated before a request is failed rather than run.
        grace: Duration,
    },
}

/// Tuning knobs of a [`BppsaService`].
///
/// Not `Copy` (the [`FaultInjector`] shares its schedule by `Arc`); clone
/// freely — a clone shares the same fault schedule and is otherwise a
/// plain value.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Flush a lane as soon as this many requests are pending (also the
    /// upper bound on one fan-out's width). Must be non-zero.
    pub max_batch: usize,
    /// Default per-request delay budget for [`BppsaService::submit`]: the
    /// longest a request waits for co-batchable traffic before its lane
    /// flushes below `max_batch`.
    pub max_delay: Duration,
    /// Per-lane pending-request bound; submissions beyond it block (or
    /// return [`SubmitError::Backpressure`] from
    /// [`BppsaService::try_submit`]). Must be non-zero.
    pub queue_cap: usize,
    /// Most-recently-used cap on concurrently live lanes (distinct chain
    /// shapes); the least recently used lane beyond it is drained and
    /// retired. Must be non-zero.
    pub max_lanes: usize,
    /// Workspace-pool capacity per lane; `0` sizes to the shared scan
    /// pool's worker count + 1 (every worker plus the dispatcher can hold a
    /// workspace without blocking).
    pub workspaces_per_lane: usize,
    /// Load-shedding thresholds (disabled by default).
    pub shed: ShedPolicy,
    /// Consecutive-batch-panic circuit breaker + shape quarantine
    /// (disabled by default).
    pub breaker: BreakerPolicy,
    /// What to do with requests already past their deadline at flush
    /// ([`DeadlinePolicy::Soft`] — execute late — by default).
    pub deadline: DeadlinePolicy,
    /// Budget/backoff/jitter for [`BppsaService::submit_retrying`] and for
    /// `bppsa-models`' served training paths.
    pub retry: RetryPolicy,
    /// Fault-injection schedule (the disabled no-op by default — a single
    /// branch per injection point, nothing on the steady-state path).
    pub faults: FaultInjector,
    /// Global memory budget shared by every lane's workspace pool (`None`
    /// — the default — is unbudgeted). With a budget armed, pool growth
    /// and warm-up prewarming reserve bytes against it: exhaustion makes
    /// checkout fall back to blocking on already-owned workspaces instead
    /// of allocating, and lane creation under exhaustion evicts the
    /// least-recently-used lane (or refuses with
    /// [`SubmitError::MemoryPressure`] when nothing is evictable) — a
    /// shape storm can never allocate past the budget. Share one `Arc`
    /// across services to bound a whole process.
    pub memory: Option<Arc<MemoryBudget>>,
    /// Flush-stall watchdog (`None` — the default — disables it). When
    /// armed, a per-service supervisor thread polls every lane's published
    /// in-flight flush and condemns any lane stuck in execution past the
    /// stall budget: its assembled requests fail with
    /// [`ServeError::FlushStalled`], its queue drains with
    /// [`ServeError::LaneQuarantined`] (chains handed back), and the shape
    /// quarantines for the breaker cool-down — no ticket ever hangs on a
    /// wedged kernel. Off the hot path: the dispatcher's extra cost is one
    /// mutex update per *flush*, not per request.
    pub watchdog: Option<WatchdogPolicy>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            max_batch: 8,
            max_delay: Duration::from_millis(1),
            queue_cap: 64,
            max_lanes: bppsa_core::PLAN_CACHE_CAPACITY,
            workspaces_per_lane: 0,
            shed: ShedPolicy::disabled(),
            breaker: BreakerPolicy::disabled(),
            deadline: DeadlinePolicy::Soft,
            retry: RetryPolicy::default(),
            faults: FaultInjector::disabled(),
            memory: None,
            watchdog: None,
        }
    }
}

impl ServeConfig {
    fn validate(&self) {
        assert!(self.max_batch >= 1, "ServeConfig: max_batch must be >= 1");
        assert!(self.queue_cap >= 1, "ServeConfig: queue_cap must be >= 1");
        assert!(self.max_lanes >= 1, "ServeConfig: max_lanes must be >= 1");
        self.shed.validate();
        self.breaker.validate();
        self.retry.validate();
        if let Some(watchdog) = self.watchdog {
            watchdog.validate();
        }
    }

    fn workspace_capacity(&self) -> usize {
        if self.workspaces_per_lane == 0 {
            global_pool().size() + 1
        } else {
            self.workspaces_per_lane
        }
    }
}

/// Why a submission was refused; the chain is always handed back for retry
/// or disposal.
#[derive(Debug)]
pub enum SubmitError<S> {
    /// The service is shutting down (or already shut down).
    Shutdown(JacobianChain<S>),
    /// [`BppsaService::try_submit`] only: the target lane's queue is full.
    Backpressure(JacobianChain<S>),
    /// The ticket already has a request in flight — one flight per ticket
    /// at a time.
    TicketInFlight(JacobianChain<S>),
    /// [`BppsaService::try_submit`] only: the target lane is still
    /// [`Warming`](LaneState::Warming) (its plan is being built on the
    /// dispatcher thread). Retry, block via [`BppsaService::submit`], or
    /// route elsewhere.
    LaneWarming(JacobianChain<S>),
    /// The [`ShedPolicy`] refused the request (queue too deep, or the delay
    /// budget is infeasible while the lane warms).
    Shed(JacobianChain<S>),
    /// The chain's shape is quarantined: a lane of this shape tripped its
    /// [`BreakerPolicy`] (or is mid-probe) and the cool-down has not
    /// produced a successful half-open probe yet. Transient — retry after
    /// the cool-down (e.g. via [`BppsaService::submit_retrying`]), or
    /// route the work elsewhere.
    Quarantined(JacobianChain<S>),
    /// The lane's own measured flush latency says the request cannot meet
    /// its delay budget (see [`ShedPolicy::feasibility`]): the predicted
    /// queue wait already exceeds the deadline, so queueing it would only
    /// burn a batch slot on a guaranteed miss. **Not transient** — an
    /// immediate retry faces the same queue and the same estimate; retry
    /// with a larger budget, or route elsewhere.
    Infeasible(JacobianChain<S>),
    /// The service is under memory pressure: the configured
    /// [`MemoryBudget`] is exhausted and nothing was evictable, so creating
    /// a lane for this (cold) shape was refused. Transient — pressure
    /// subsides as reservations release (lanes retiring, or the budget's
    /// other holders letting go).
    MemoryPressure(JacobianChain<S>),
}

/// The chain-free identity of a [`SubmitError`] — `Copy`, comparable, and
/// displayable, for surfacing a refusal through layers that must not carry
/// the (potentially large) chain along, e.g. `bppsa-models`' typed
/// retry-exhaustion errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitRefusal {
    /// See [`SubmitError::Shutdown`].
    Shutdown,
    /// See [`SubmitError::Backpressure`].
    Backpressure,
    /// See [`SubmitError::TicketInFlight`].
    TicketInFlight,
    /// See [`SubmitError::LaneWarming`].
    LaneWarming,
    /// See [`SubmitError::Shed`].
    Shed,
    /// See [`SubmitError::Quarantined`].
    Quarantined,
    /// See [`SubmitError::Infeasible`].
    Infeasible,
    /// See [`SubmitError::MemoryPressure`].
    MemoryPressure,
}

impl SubmitRefusal {
    /// Whether retrying can ever help: `true` for the transient refusals
    /// ([`Backpressure`](Self::Backpressure),
    /// [`LaneWarming`](Self::LaneWarming), [`Shed`](Self::Shed),
    /// [`Quarantined`](Self::Quarantined),
    /// [`MemoryPressure`](Self::MemoryPressure)); `false` for
    /// [`Shutdown`](Self::Shutdown) (permanent),
    /// [`TicketInFlight`](Self::TicketInFlight) (a caller bug), and
    /// [`Infeasible`](Self::Infeasible) — an immediate retry of an
    /// infeasible request faces the same queue and the same latency
    /// estimate, so backing off and resubmitting only deepens the
    /// overload the refusal exists to relieve.
    pub fn is_transient(self) -> bool {
        !matches!(
            self,
            SubmitRefusal::Shutdown | SubmitRefusal::TicketInFlight | SubmitRefusal::Infeasible
        )
    }
}

impl std::fmt::Display for SubmitRefusal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitRefusal::Shutdown => write!(f, "service is shutting down"),
            SubmitRefusal::Backpressure => write!(f, "lane queue is full"),
            SubmitRefusal::TicketInFlight => {
                write!(f, "ticket already has a request in flight")
            }
            SubmitRefusal::LaneWarming => {
                write!(f, "lane is still warming (plan being built)")
            }
            SubmitRefusal::Shed => write!(f, "request shed by load-shedding policy"),
            SubmitRefusal::Quarantined => {
                write!(f, "chain shape is quarantined by a tripped circuit breaker")
            }
            SubmitRefusal::Infeasible => {
                write!(f, "predicted queue wait exceeds the request's delay budget")
            }
            SubmitRefusal::MemoryPressure => {
                write!(f, "memory budget exhausted; cold-shape lane refused")
            }
        }
    }
}

impl std::error::Error for SubmitRefusal {}

impl<S> SubmitError<S> {
    /// The refusal `refusal`, handing `chain` back.
    fn new(refusal: SubmitRefusal, chain: JacobianChain<S>) -> Self {
        match refusal {
            SubmitRefusal::Shutdown => SubmitError::Shutdown(chain),
            SubmitRefusal::Backpressure => SubmitError::Backpressure(chain),
            SubmitRefusal::TicketInFlight => SubmitError::TicketInFlight(chain),
            SubmitRefusal::LaneWarming => SubmitError::LaneWarming(chain),
            SubmitRefusal::Shed => SubmitError::Shed(chain),
            SubmitRefusal::Quarantined => SubmitError::Quarantined(chain),
            SubmitRefusal::Infeasible => SubmitError::Infeasible(chain),
            SubmitRefusal::MemoryPressure => SubmitError::MemoryPressure(chain),
        }
    }

    /// Reclaims the refused chain.
    pub fn into_chain(self) -> JacobianChain<S> {
        match self {
            SubmitError::Shutdown(c)
            | SubmitError::Backpressure(c)
            | SubmitError::TicketInFlight(c)
            | SubmitError::LaneWarming(c)
            | SubmitError::Shed(c)
            | SubmitError::Quarantined(c)
            | SubmitError::Infeasible(c)
            | SubmitError::MemoryPressure(c) => c,
        }
    }

    /// The refusal's chain-free identity (see [`SubmitRefusal`]).
    pub fn kind(&self) -> SubmitRefusal {
        match self {
            SubmitError::Shutdown(_) => SubmitRefusal::Shutdown,
            SubmitError::Backpressure(_) => SubmitRefusal::Backpressure,
            SubmitError::TicketInFlight(_) => SubmitRefusal::TicketInFlight,
            SubmitError::LaneWarming(_) => SubmitRefusal::LaneWarming,
            SubmitError::Shed(_) => SubmitRefusal::Shed,
            SubmitError::Quarantined(_) => SubmitRefusal::Quarantined,
            SubmitError::Infeasible(_) => SubmitRefusal::Infeasible,
            SubmitError::MemoryPressure(_) => SubmitRefusal::MemoryPressure,
        }
    }
}

impl<S> std::fmt::Display for SubmitError<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.kind().fmt(f)
    }
}

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    // Queue and router state are value-only; a panicking holder leaves them
    // consistent (panics inside a flush are caught before this layer).
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Reverts a `begin_flight` when routing panics: an invalid chain fails
/// [`LaneShape::of`]'s validation on the router-miss path — after the
/// ticket was marked in flight — and the ticket must come back *idle*
/// (reusable), not stranded `Pending`. Forgotten on the non-panicking
/// path. Validation itself lives only on the miss path because a chain
/// that matches an existing lane's shape key is valid by construction
/// (the key pins seed width and every per-layer pattern, and the lane's
/// template was validated at creation) — the steady-state submit pays no
/// extra chain walk.
struct FlightGuard<'a, S>(&'a TicketShared<S>);

impl<S> Drop for FlightGuard<'_, S> {
    fn drop(&mut self) {
        self.0.abort_flight();
    }
}

/// The routing identity of a lane, extractable without planning: seed width
/// plus the per-layer sparsity patterns. Matching delegates to the same
/// [`chain_matches_shape`] predicate as
/// [`PlannedScan::matches`](bppsa_core::PlannedScan::matches)
/// (allocation-free, `Arc`-pointer fast path) — a warming lane (no plan
/// yet) routes identically to a live one, and routing cannot drift from
/// plan compatibility. Clones share the pattern `Arc`s (quarantine entries
/// key on a cloned shape).
#[derive(Clone)]
struct LaneShape {
    seed_len: usize,
    patterns: Vec<Arc<SparsityPattern>>,
}

impl LaneShape {
    /// Extracts the shape key.
    ///
    /// # Panics
    ///
    /// Panics if the chain is structurally invalid or not all-CSR — *before*
    /// any router state is touched, so a bad submit can never evict or
    /// orphan an existing lane.
    fn of<S: Scalar>(chain: &JacobianChain<S>) -> Self {
        chain.validate();
        let patterns = chain
            .jacobians()
            .iter()
            .map(|jt| match jt {
                ScanElement::Sparse(m) => m.pattern(),
                other => panic!("BppsaService: chain must be all-CSR, found {other}"),
            })
            .collect();
        Self {
            seed_len: chain.seed().len(),
            patterns,
        }
    }

    fn matches<S: Scalar>(&self, chain: &JacobianChain<S>) -> bool {
        chain_matches_shape(chain, self.seed_len, &self.patterns)
    }

    /// Shape-to-shape identity, mirroring [`LaneShape::matches`]'s chain
    /// semantics: same seed width, same per-layer patterns (`Arc`-pointer
    /// fast path, structural fallback — distinct chains of one shape
    /// family carry distinct pattern `Arc`s).
    fn same_as(&self, other: &LaneShape) -> bool {
        self.seed_len == other.seed_len
            && self.patterns.len() == other.patterns.len()
            && self
                .patterns
                .iter()
                .zip(&other.patterns)
                .all(|(a, b)| Arc::ptr_eq(a, b) || a == b)
    }
}

/// How the quarantine book answers a routing request for a shape.
enum Admission {
    /// Not quarantined: route normally.
    Clear,
    /// Quarantined and cooling down (or a probe is already in flight):
    /// refuse with [`SubmitError::Quarantined`].
    Refuse,
    /// Cool-down elapsed and this caller won the half-open slot: create
    /// the lane as a **probe** (breaker threshold 1; its first clean flush
    /// clears the quarantine).
    Probe,
}

/// The per-service registry of quarantined shapes, shared (`Arc`) between
/// the router and every lane so a dispatcher can trip/clear its shape
/// without reaching back into the router (no router↔lane lock cycle: the
/// book's lock is a leaf — taken with the router lock held on the routing
/// miss path, but never the other way around).
#[derive(Default)]
struct QuarantineBook {
    entries: Mutex<Vec<QuarantineEntry>>,
    /// Submits refused because their shape was quarantined (the realized
    /// refusal rate under a panicking shape — also what the
    /// `serve_recovery` bench reports).
    refused: AtomicU64,
}

struct QuarantineEntry {
    shape: LaneShape,
    /// End of the cool-down; admissions before it are refused.
    until: Instant,
    /// A half-open probe lane is in flight: further admissions are refused
    /// until the probe proves (entry removed) or re-trips (cool-down
    /// extended) — exactly one prober at a time keeps recovery
    /// deterministic.
    probing: bool,
}

impl QuarantineBook {
    /// The routing decision for `chain` at `now`.
    fn admit<S: Scalar>(&self, chain: &JacobianChain<S>, now: Instant) -> Admission {
        let mut entries = lock(&self.entries);
        let Some(entry) = entries.iter_mut().find(|e| e.shape.matches(chain)) else {
            return Admission::Clear;
        };
        if entry.probing || now < entry.until {
            self.refused.fetch_add(1, Ordering::Relaxed);
            return Admission::Refuse;
        }
        entry.probing = true;
        Admission::Probe
    }

    /// Trips (or re-trips) the quarantine for `shape`: refusals until
    /// `now + cooldown`, then one probe.
    fn trip(&self, shape: &LaneShape, cooldown: Duration, now: Instant) {
        let mut entries = lock(&self.entries);
        if let Some(entry) = entries.iter_mut().find(|e| e.shape.same_as(shape)) {
            entry.until = now + cooldown;
            entry.probing = false;
        } else {
            entries.push(QuarantineEntry {
                shape: shape.clone(),
                until: now + cooldown,
                probing: false,
            });
        }
    }

    /// A probe lane flushed cleanly: the shape returns to full service.
    fn clear(&self, shape: &LaneShape) {
        let mut entries = lock(&self.entries);
        entries.retain(|e| !e.shape.same_as(shape));
    }

    /// A probe lane exited without proving (evicted, shut down, drained
    /// empty): release the half-open slot so the next submit of the shape
    /// probes again instead of being refused forever. No-op unless a probe
    /// is actually in flight for `shape` — after a re-trip (`probing`
    /// already false) or a clear (entry gone) there is nothing to release.
    fn abort_probe(&self, shape: &LaneShape) {
        let mut entries = lock(&self.entries);
        if let Some(entry) = entries.iter_mut().find(|e| e.shape.same_as(shape)) {
            entry.probing = false;
        }
    }

    fn refusals(&self) -> u64 {
        self.refused.load(Ordering::Relaxed)
    }

    /// Shapes currently under quarantine (cooling down or mid-probe).
    fn len(&self) -> usize {
        lock(&self.entries).len()
    }
}

struct PendingRequest<S> {
    chain: JacobianChain<S>,
    deadline: Instant,
    ticket: Arc<TicketShared<S>>,
}

struct LaneQueue<S> {
    pending: VecDeque<PendingRequest<S>>,
    /// `false` once the lane is evicted or the service shuts down: the
    /// dispatcher drains what is queued, completes it, and exits; new
    /// pushes are refused.
    open: bool,
}

/// The flush currently inside [`BatchedBackward::execute`], published by
/// the dispatcher for the stall watchdog. `active` is armed after batch
/// assembly (before the `FlushTiming` injection point, so scripted stalls
/// are watchdog-visible) and disarmed when the flush returns; the tickets
/// travel with their flight tokens so a condemnation races safely against
/// a late-waking dispatcher (exactly one side completes each ticket — see
/// `TicketShared::finish_if`). The vector's capacity is reserved once at
/// lane creation: arming is a truncate-and-extend into owned storage,
/// allocation-free in the steady state.
struct InFlight<S> {
    tickets: Vec<(Arc<TicketShared<S>>, u64)>,
    started: Instant,
    active: bool,
}

struct Lane<S> {
    shape: LaneShape,
    /// Set by the dispatcher once planning + workspace construction finish
    /// (the lane's `Warming → Live` transition). Submitters never touch it.
    batched: OnceLock<BatchedBackward<S>>,
    queue: Mutex<LaneQueue<S>>,
    /// Dispatcher wakeup: request arrived or lane closed.
    submitted: Condvar,
    /// Submitter wakeup: the dispatcher drained queue room.
    space: Condvar,
    lane_id: usize,
    max_batch: usize,
    queue_cap: usize,
    shed: ShedPolicy,
    /// Effective consecutive-panic trip threshold: `None` = breaker
    /// disabled; probe lanes get `Some(1)` whatever the config says.
    breaker_threshold: Option<u32>,
    /// Cool-down applied when this lane trips.
    cooldown: Duration,
    deadline_policy: DeadlinePolicy,
    faults: FaultInjector,
    /// The service's quarantine registry (shared so the dispatcher can
    /// trip/clear/abort its shape without the router).
    book: Arc<QuarantineBook>,
    /// Whether this lane is a half-open probe for a quarantined shape.
    probe: bool,
    metrics: Arc<LaneMetrics>,
    /// The watchdog declared this lane stalled and took its tickets over:
    /// the dispatcher, should its wedged flush ever return, must exit
    /// without completing tickets or clearing the quarantine.
    condemned: AtomicBool,
    /// The flush currently executing, for the watchdog (see [`InFlight`]).
    inflight: Mutex<InFlight<S>>,
}

impl<S: Scalar> Lane<S> {
    /// A placeholder lane: shape key, bounded queue, metrics — everything a
    /// submitter needs to route and enqueue, and nothing that requires
    /// planning. Cheap enough to build under the router lock; the plan and
    /// workspace pool are late-bound by the dispatcher ([`warm_up`]).
    fn placeholder(
        shape: LaneShape,
        config: &ServeConfig,
        lane_id: usize,
        probe: bool,
        book: Arc<QuarantineBook>,
    ) -> Self {
        let metrics = Arc::new(LaneMetrics::new(
            lane_id,
            shape.patterns.len(),
            shape.seed_len,
            config.max_batch,
            probe,
        ));
        // A probe must prove itself on its very first flush: any panic
        // re-trips, whatever threshold full-service lanes get.
        let breaker_threshold =
            config
                .breaker
                .max_consecutive_panics
                .map(|n| if probe { 1 } else { n });
        Self {
            shape,
            batched: OnceLock::new(),
            queue: Mutex::new(LaneQueue {
                pending: VecDeque::with_capacity(config.queue_cap),
                open: true,
            }),
            submitted: Condvar::new(),
            space: Condvar::new(),
            lane_id,
            max_batch: config.max_batch,
            queue_cap: config.queue_cap,
            shed: config.shed,
            breaker_threshold,
            cooldown: config.breaker.cooldown,
            deadline_policy: config.deadline,
            faults: config.faults.clone(),
            book,
            probe,
            metrics,
            condemned: AtomicBool::new(false),
            inflight: Mutex::new(InFlight {
                tickets: Vec::with_capacity(config.max_batch),
                started: Instant::now(),
                active: false,
            }),
        }
    }
}

impl<S> Lane<S> {
    /// Enqueues a request, blocking on a full queue when `block` (the
    /// bounded-queue backpressure). `creator` marks the request that created
    /// the lane. Whether the request is queued, parks, or is refused is
    /// decided by [`admit`] alone, re-asked after every park. Refusals hand
    /// the chain back: `None` means the lane is closed (evicted or shutting
    /// down) and the caller re-routes; `Some` is the lane's refusal.
    fn push(
        &self,
        chain: JacobianChain<S>,
        deadline: Instant,
        delay: Duration,
        ticket: Arc<TicketShared<S>>,
        block: bool,
        creator: bool,
    ) -> Result<(), (JacobianChain<S>, Option<SubmitRefusal>)> {
        let mut q = lock(&self.queue);
        loop {
            if !q.open {
                return Err((chain, None));
            }
            // The estimate is read only with the feasibility gate armed:
            // two atomic loads then, nothing otherwise.
            let view = LaneView {
                pending: q.pending.len(),
                queue_cap: self.queue_cap,
                max_batch: self.max_batch,
                warming: self.metrics.state() == LaneState::Warming,
                creator,
                flush_estimate: self
                    .shed
                    .feasibility
                    .and_then(|p| self.metrics.flush_estimate(p.min_flushes)),
            };
            match admit(&self.shed, &view, delay, block) {
                Ok(LaneAdmission::Enqueue) => break,
                Ok(LaneAdmission::Park) => {
                    q = self.space.wait(q).unwrap_or_else(PoisonError::into_inner);
                }
                Err(refusal) => {
                    self.metrics.record_refusal(refusal);
                    return Err((chain, Some(refusal)));
                }
            }
        }
        q.pending.push_back(PendingRequest {
            chain,
            deadline,
            ticket,
        });
        self.metrics.record_submit(q.pending.len());
        drop(q);
        self.submitted.notify_one();
        Ok(())
    }

    /// Closes the lane: the dispatcher drains the remaining queue (every
    /// accepted request still completes) and exits; new pushes re-route.
    fn close(&self) {
        self.metrics.mark_draining();
        let mut q = lock(&self.queue);
        q.open = false;
        drop(q);
        self.submitted.notify_all();
        self.space.notify_all();
    }

    /// Closes the lane and fails everything it accepted with `err` — the
    /// drain used by every "this lane can never serve" exit (warm-up
    /// panic, breaker trip, dispatcher death). Chains are handed back,
    /// every waiter wakes, and parked submitters re-route.
    fn fail_queue(&self, err: ServeError) {
        self.close();
        let mut q = lock(&self.queue);
        while let Some(req) = q.pending.pop_front() {
            req.ticket.finish(req.chain, Some(err));
        }
        drop(q);
        self.metrics.record_failed_drain();
        self.space.notify_all();
    }

    /// Watchdog takeover of a stalled lane (supervisor thread only): fails
    /// the published in-flight tickets with [`ServeError::FlushStalled`]
    /// (no chain handed back — the chains are captive in the wedged
    /// execution), drains the queue with [`ServeError::LaneQuarantined`]
    /// (those chains *are* handed back), and quarantines the shape for the
    /// breaker cool-down so recovery goes through the usual half-open
    /// probe. The token-guarded `finish_if` makes the race against a
    /// late-waking dispatcher safe: exactly one side completes each
    /// ticket, and the condemned flag stops the dispatcher from clearing
    /// the quarantine its wedged flush never earned.
    fn condemn_stalled(&self, now: Instant) {
        self.condemned.store(true, Ordering::Release);
        // Publish the quarantine before any ticket resolves, as `flush`
        // does: a client resubmitting on `FlushStalled` must be refused.
        self.book.trip(&self.shape, self.cooldown, now);
        self.metrics.record_stalled();
        self.metrics.mark_quarantined();
        let mut inflight = lock(&self.inflight);
        if inflight.active {
            inflight.active = false;
            for (ticket, token) in inflight.tickets.drain(..) {
                ticket.finish_if(token, None, Some(ServeError::FlushStalled));
            }
        }
        drop(inflight);
        self.fail_queue(ServeError::LaneQuarantined);
    }
}

/// Chains at least this deep plan segment-parallel execution
/// ([`BppsaOptions::segmented`]) when their lane warms up. Below it, the
/// batch-level fan-out of [`BatchedBackward`] is parallelism enough and
/// segmentation would only add stitch overhead per request.
pub const LANE_SEGMENT_MIN_LAYERS: usize = 1024;

/// Segments a deep-chain lane requests at warm-up. Two keeps every segment
/// heavy (half the chain each) and maps onto small worker pools without
/// idle groups; genuinely wide hosts can revisit this alongside the
/// multi-core re-baselining (see ROADMAP).
pub const LANE_SEGMENTS: usize = 2;

/// The plan options a lane's warm-up uses for a `layers`-deep chain: deep
/// chains (≥ [`LANE_SEGMENT_MIN_LAYERS`]) transparently pick
/// segment-parallel pooled execution; everything else plans serial and
/// relies on the batch-level fan-out. Pure — pinned by unit test, surfaced
/// per lane via [`LaneMetricsSnapshot::plan_segments`](crate::LaneMetricsSnapshot::plan_segments).
pub fn lane_plan_options(layers: usize) -> BppsaOptions {
    if layers >= LANE_SEGMENT_MIN_LAYERS {
        BppsaOptions::pooled().segmented(LANE_SEGMENTS)
    } else {
        BppsaOptions::serial()
    }
}

/// The warming phase of a lane's dispatcher: wait for the lane's first
/// request, build the compiled plan and workspace pool from it **off the
/// router lock**, and publish them (`Warming → Live`). Returns `false` when
/// the lane should retire without serving: closed before any request
/// arrived, or planning panicked (every accepted request is then failed
/// with [`ServeError::PlanPanicked`] instead of hanging its ticket).
fn warm_up<S: Scalar>(lane: &Lane<S>, config: &ServeConfig) -> bool {
    let template = {
        let mut q = lock(&lane.queue);
        loop {
            if let Some(front) = q.pending.front() {
                // Clone the template under the lock (cold path, once per
                // lane); planning reads only its patterns and shapes.
                break front.chain.clone();
            }
            if !q.open {
                return false; // closed empty: retire without a plan
            }
            q = lane
                .submitted
                .wait(q)
                .unwrap_or_else(PoisonError::into_inner);
        }
    };
    let warm_start = Instant::now();
    let built = catch_unwind(AssertUnwindSafe(|| {
        // Injection point: a scripted/seeded plan panic exercises the
        // PlanPanicked drain (and plan-panic quarantine); a stall extends
        // the Warming window deterministically.
        lane.faults
            .fire(InjectionPoint::PlanBuild { lane: lane.lane_id });
        let options = lane_plan_options(template.num_layers());
        let plan = Arc::new(PlannedScan::plan(&template, options));
        let capacity = config.workspace_capacity();
        // A configured memory budget makes pool growth a *reservation*:
        // prewarming stops at the budget (best effort) and steady-state
        // checkout falls back to blocking on already-owned workspaces
        // instead of allocating past it.
        let batched =
            BatchedBackward::with_capacity_budgeted(plan, capacity, config.memory.clone());
        batched.prewarm(config.max_batch.min(capacity));
        batched
    }));
    match built {
        Ok(batched) => {
            lane.metrics
                .record_warmup(batched.plan().build_time(), warm_start.elapsed());
            lane.metrics.record_plan_profile(
                batched.plan().plan_kind(),
                batched.plan().kernel_counts(),
                batched.plan().segments(),
            );
            let stored = lane.batched.set(batched);
            debug_assert!(stored.is_ok(), "warm-up runs exactly once per lane");
            lane.metrics.mark_live();
            true
        }
        Err(_) => {
            // Shape validity was checked at submit, so a planner panic here
            // is an internal bug — but it must not hang tickets. With a
            // breaker armed, it also quarantines the shape immediately
            // (nothing can execute without a plan, so the effective
            // threshold is 1): without that, a plan-panicking shape would
            // thrash evict → re-create → re-plan → panic on every submit.
            if lane.breaker_threshold.is_some() {
                lane.book.trip(&lane.shape, lane.cooldown, Instant::now());
                lane.metrics.mark_quarantined();
            }
            lane.fail_queue(ServeError::PlanPanicked);
            false
        }
    }
}

/// What a lane's dispatcher should do next, given the pending requests'
/// deadlines, the queue's open flag, and the time. Pure — extracted from
/// the dispatcher's wait loop so the deadline-ordering proptest can pin the
/// timer arithmetic without threads; the dispatcher calls exactly this.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushDecision {
    /// Flush now, attributing the batch to this cause.
    Flush(FlushCause),
    /// Nothing is due yet: sleep until the **earliest** pending deadline
    /// (re-deciding on any new arrival). Deadlines are submit-time +
    /// per-request budget, so arrival order does not order them — a
    /// short-budget request queued behind long-budget ones still bounds
    /// the wait.
    WaitUntil(Instant),
    /// Queue empty and open: park until a request arrives.
    Park,
    /// Queue empty and closed: drained — the dispatcher retires.
    Retire,
}

/// The dispatcher's flush-timing decision (see [`FlushDecision`]):
/// `deadlines` are the pending requests' absolute deadlines (any order),
/// `open` whether the lane still accepts work, `max_batch` the flush width
/// cap, `now` the decision time. Allocation-free; O(pending).
pub fn flush_decision(
    deadlines: impl IntoIterator<Item = Instant>,
    open: bool,
    max_batch: usize,
    now: Instant,
) -> FlushDecision {
    let mut pending = 0usize;
    let mut earliest: Option<Instant> = None;
    for deadline in deadlines {
        pending += 1;
        earliest = Some(earliest.map_or(deadline, |e| e.min(deadline)));
    }
    if pending >= max_batch {
        return FlushDecision::Flush(FlushCause::MaxBatch); // full batch never waits
    }
    let Some(earliest) = earliest else {
        return if open {
            FlushDecision::Park
        } else {
            FlushDecision::Retire
        };
    };
    if !open {
        return FlushDecision::Flush(FlushCause::Drain); // flush the remainder immediately
    }
    if now >= earliest {
        FlushDecision::Flush(FlushCause::Deadline)
    } else {
        FlushDecision::WaitUntil(earliest)
    }
}

/// Drop-guard supervision for a dispatcher thread: owns the batch scratch
/// (so an unwinding dispatcher still holds its assembled requests), and on
/// a panic that escapes every `catch_unwind` — injected dispatcher kills,
/// or an internal bug outside the guarded regions — fails everything the
/// lane holds with [`ServeError::LaneDied`] instead of leaving waiters
/// parked forever on tickets nothing will ever complete.
///
/// On *every* dispatcher exit (clean or not) the guard also releases the
/// shape's half-open probe slot if this lane held one and never proved it
/// (a probe evicted, shut down or killed mid-flight must not wedge its
/// shape in "probing" forever); the release is a no-op after a clear or a
/// re-trip.
struct Supervisor<'a, S: Scalar> {
    lane: &'a Lane<S>,
    chains: Vec<JacobianChain<S>>,
    tickets: Vec<Arc<TicketShared<S>>>,
    /// Flight tokens captured at assembly, parallel to `tickets`: every
    /// completion below goes through the token-guarded
    /// `finish_if`/`stage_if` so a watchdog takeover of a stalled flush
    /// can never double-complete (or cross-complete a newer flight of) a
    /// ticket this scratch still holds.
    tokens: Vec<u64>,
    deadlines: Vec<Instant>,
}

impl<'a, S: Scalar> Supervisor<'a, S> {
    fn new(lane: &'a Lane<S>) -> Self {
        Self {
            lane,
            chains: Vec::with_capacity(lane.max_batch),
            tickets: Vec::with_capacity(lane.max_batch),
            tokens: Vec::with_capacity(lane.max_batch),
            deadlines: Vec::with_capacity(lane.max_batch),
        }
    }
}

impl<S: Scalar> Drop for Supervisor<'_, S> {
    fn drop(&mut self) {
        // Everything here must be panic-free: a panic in drop during unwind
        // aborts the process. `finish`/`close`/`fail_queue` absorb mutex
        // poison and take no foreign callbacks. Ordering matters: a dying
        // lane records the death and becomes unroutable (queue closed,
        // state terminal), then releases its probe slot, and only then
        // fails any ticket — so a waiter woken by a `LaneDied` outcome
        // already sees the death in the metrics, and its resubmission
        // routes to a fresh lane (a fresh probe, for a probing shape)
        // instead of racing into this one's queue or being refused
        // `Quarantined` by the slot this lane still held.
        let dying = std::thread::panicking();
        if dying {
            self.lane.metrics.record_died();
            self.lane.close();
            self.lane.metrics.mark_retired();
        }
        self.lane.book.abort_probe(&self.lane.shape);
        if dying {
            self.lane.fail_queue(ServeError::LaneDied);
            self.deadlines.clear();
            for ((chain, ticket), token) in self
                .chains
                .drain(..)
                .zip(self.tickets.drain(..))
                .zip(self.tokens.drain(..))
            {
                // Token-guarded: if the watchdog already condemned this
                // flush (stall, then the injected panic killed the woken
                // dispatcher), its tickets are complete and must not be
                // re-finished.
                ticket.finish_if(token, Some(chain), Some(ServeError::LaneDied));
            }
        }
    }
}

/// One lane's dispatcher: warm the lane up (plan + workspaces, off the
/// router lock), then wait for work, coalesce under the deadline policy,
/// flush, repeat — exiting only once the lane is closed *and* drained. The
/// batch scratch vectors are reused across flushes, so the dispatcher's
/// steady state allocates nothing.
fn dispatcher_loop<S: Scalar>(lane: &Lane<S>, config: &ServeConfig) {
    let mut sup = Supervisor::new(lane);
    // Injection point: a scripted panic here escapes every catch_unwind —
    // the supervisor's drop guard fails the lane with `LaneDied` (the
    // "dispatcher dies outside any guarded region" failure domain).
    lane.faults
        .fire(InjectionPoint::DispatcherStart { lane: lane.lane_id });
    if !warm_up(lane, config) {
        lane.metrics.mark_retired();
        return;
    }
    let batched = lane.batched.get().expect("warm-up published the executor");
    // Counts assembled batches; scripted `BatchExecute`/`FlushTiming` rules
    // index flushes by this (assembly order), not by executed batches.
    let mut flush_idx: u64 = 0;
    loop {
        let cause;
        let depth_after;
        {
            let mut q = lock(&lane.queue);
            cause = loop {
                // Deadlines are submit-time + per-request budget, so
                // arrival order does not order them: a short-budget request
                // queued behind long-budget ones must still flush within
                // *its own* budget. O(pending) per wake, bounded by
                // queue_cap, allocation-free.
                match flush_decision(
                    q.pending.iter().map(|r| r.deadline),
                    q.open,
                    lane.max_batch,
                    Instant::now(),
                ) {
                    FlushDecision::Flush(cause) => break cause,
                    FlushDecision::Retire => {
                        lane.metrics.mark_retired();
                        return; // closed and drained
                    }
                    FlushDecision::Park => {
                        q = lane
                            .submitted
                            .wait(q)
                            .unwrap_or_else(PoisonError::into_inner);
                    }
                    FlushDecision::WaitUntil(deadline) => {
                        q = lane
                            .submitted
                            .wait_timeout(q, deadline.saturating_duration_since(Instant::now()))
                            .unwrap_or_else(PoisonError::into_inner)
                            .0;
                    }
                }
            };
            for _ in 0..q.pending.len().min(lane.max_batch) {
                let req = q.pending.pop_front().expect("counted above");
                sup.tokens.push(req.ticket.flight_token());
                sup.chains.push(req.chain);
                sup.tickets.push(req.ticket);
                sup.deadlines.push(req.deadline);
            }
            depth_after = q.pending.len();
        }
        lane.space.notify_all();
        // Publish the assembled flush for the stall watchdog *before* the
        // FlushTiming injection point: a scripted stall below is exactly
        // the wedged-execution failure the watchdog exists to catch, so it
        // must already be visible. One short mutex section per flush, into
        // capacity reserved at lane creation — nothing per request, no
        // allocation.
        {
            let mut inflight = lock(&lane.inflight);
            inflight.tickets.clear();
            inflight
                .tickets
                .extend(sup.tickets.iter().cloned().zip(sup.tokens.iter().copied()));
            inflight.started = Instant::now();
            inflight.active = true;
        }
        lane.metrics.tick_heartbeat();
        let flush_started = Instant::now();
        // Injection point, deliberately *outside* any catch_unwind: a stall
        // here ages the assembled batch (the hard-deadline test vector, and
        // the watchdog's scripted-stall vector); a panic kills the
        // dispatcher mid-flight with the batch scratch populated,
        // exercising the supervisor's `LaneDied` drain.
        lane.faults.fire(InjectionPoint::FlushTiming {
            lane: lane.lane_id,
            flush: flush_idx,
        });
        // Hard-deadline enforcement happens at assembly, after the flush
        // timer and any injected stall: a request whose deadline passed
        // more than `grace` ago fails with `DeadlineExceeded` instead of
        // executing. Strictly-greater-than-grace, because on a
        // deadline-cause flush the triggering request is *at* its deadline
        // by construction — zero grace would still execute it unless the
        // dispatcher overslept.
        if let DeadlinePolicy::Hard { grace } = lane.deadline_policy {
            let cutoff = Instant::now();
            let mut keep = sup.chains.len();
            let mut i = 0;
            while i < keep {
                if cutoff.saturating_duration_since(sup.deadlines[i]) > grace {
                    keep -= 1;
                    sup.chains.swap(i, keep);
                    sup.tickets.swap(i, keep);
                    sup.tokens.swap(i, keep);
                    sup.deadlines.swap(i, keep);
                } else {
                    i += 1;
                }
            }
            let expired = sup.chains.len() - keep;
            if expired > 0 {
                lane.metrics
                    .record_deadline_expired(expired as u64, depth_after);
                for _ in 0..expired {
                    let chain = sup.chains.pop().expect("counted above");
                    let ticket = sup.tickets.pop().expect("counted above");
                    let token = sup.tokens.pop().expect("counted above");
                    sup.deadlines.pop();
                    ticket.finish_if(token, Some(chain), Some(ServeError::DeadlineExceeded));
                }
            }
        }
        sup.deadlines.clear();
        let executed = !sup.chains.is_empty();
        if executed {
            lane.metrics
                .record_flush(cause, sup.chains.len(), depth_after);
            let tripped = flush(
                batched,
                lane,
                flush_idx,
                flush_started,
                &mut sup.chains,
                &mut sup.tickets,
                &mut sup.tokens,
            );
            if tripped {
                // The breaker (or the stall watchdog, mid-flush) already
                // quarantined the shape and failed the queue; `Quarantined`
                // is sticky against any later `mark_retired` (the state
                // must outlive the lane so `metrics()` reports the trip).
                // Disarm before exiting so the watchdog never re-condemns
                // a flush that already resolved.
                lock(&lane.inflight).active = false;
                return;
            }
        }
        // Disarm the watchdog publication.
        {
            let mut inflight = lock(&lane.inflight);
            inflight.active = false;
            inflight.tickets.clear();
        }
        lane.metrics.tick_heartbeat();
        flush_idx += 1;
    }
}

/// Executes one coalesced batch and completes every ticket, attributing a
/// batch panic per request: members whose execution finished (their result
/// was staged) complete successfully; the panicking member fails with
/// [`crate::ServeError::BatchPanicked`]. The panic never crosses to other
/// batches — the worker pool's poison signal is generation-scoped (see
/// `bppsa-scan`'s pool docs), and it is caught here before the dispatcher
/// touches the next batch.
///
/// This is also where the circuit breaker observes outcomes: a success
/// resets the consecutive-panic streak (and, on a half-open probe lane,
/// proves the shape healthy — the quarantine lifts); a panic extends it,
/// and when the streak reaches the [`BreakerPolicy`] threshold the shape is
/// quarantined — pending requests fail with
/// [`crate::ServeError::LaneQuarantined`] and the returned flag tells the
/// dispatcher to exit.
///
/// A flush that neither trips nor was condemned also feeds the feasibility
/// estimator, before any ticket resolves: the sample spans `started` (just
/// after batch assembly) through injection, deadline pruning and
/// execution — what a queued request waits behind.
fn flush<S: Scalar>(
    batched: &BatchedBackward<S>,
    lane: &Lane<S>,
    flush_idx: u64,
    started: Instant,
    chains: &mut Vec<JacobianChain<S>>,
    tickets: &mut Vec<Arc<TicketShared<S>>>,
    tokens: &mut Vec<u64>,
) -> bool {
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        // Injection point: indistinguishable from a kernel panic to
        // everything downstream — per-request attribution, breaker streaks.
        lane.faults.fire(InjectionPoint::BatchExecute {
            lane: lane.lane_id,
            flush: flush_idx,
        });
        batched.execute(chains, &|i, result| tickets[i].stage_if(tokens[i], result));
    }));
    let failure = outcome.is_err().then_some(ServeError::BatchPanicked);
    // Publish the breaker's verdict and the latency sample before any
    // ticket resolves: a client acting on its result — resubmitting the
    // moment a probe succeeds, backing off after a trip, or sizing its next
    // budget — must already see the state this outcome produced.
    let condemned = lane.condemned.load(Ordering::Acquire);
    let mut tripped = false;
    if condemned {
        // The stall watchdog took this lane over while the flush above sat
        // wedged: its tickets are already failed, its queue drained, its
        // shape quarantined. Record no success and — above all — do not
        // let a probe lane's late success clear the quarantine its stall
        // just earned.
    } else if outcome.is_ok() {
        lane.metrics.record_batch_success();
        if lane.probe {
            // Half-open probe proved the shape healthy: lift the
            // quarantine (no-op after the first success). The probe lane
            // itself keeps its threshold-1 breaker for its lifetime; the
            // shape returns to the configured threshold when a fresh lane
            // is created for it.
            lane.book.clear(&lane.shape);
        }
    } else {
        let streak = lane.metrics.record_batch_panic();
        if lane.breaker_threshold.is_some_and(|t| streak >= t) {
            lane.book.trip(&lane.shape, lane.cooldown, Instant::now());
            lane.metrics.mark_quarantined();
            tripped = true;
        }
    }
    if !condemned && !tripped {
        lane.metrics.record_flush_latency(started.elapsed());
    }
    for ((chain, ticket), token) in chains
        .drain(..)
        .zip(tickets.drain(..))
        .zip(tokens.drain(..))
    {
        // Token-guarded: no-ops on tickets a watchdog condemnation already
        // failed while this flush sat stalled.
        ticket.finish_if(token, Some(chain), failure);
    }
    if tripped {
        lane.fail_queue(ServeError::LaneQuarantined);
    }
    condemned || tripped
}

/// The stall watchdog's supervisor: one thread per service (spawned lazily
/// with the first lane, only when [`ServeConfig::watchdog`] is armed),
/// entirely off the submit/flush hot path. Each poll it snapshots the live
/// lanes under the router lock (an `Arc` copy into scratch whose capacity
/// is reserved once — the steady-state poll allocates nothing) and
/// condemns any lane whose published in-flight flush has been executing
/// past the stall budget ([`Lane::condemn_stalled`] — tickets fail typed,
/// queue drains, shape quarantines).
fn supervisor_loop<S: Scalar>(shared: &ServiceShared<S>, watchdog: WatchdogPolicy) {
    let mut lanes: Vec<Arc<Lane<S>>> = Vec::with_capacity(shared.config.max_lanes);
    loop {
        {
            let (stopped, wake) = &*shared.stop;
            let mut guard = stopped.lock().unwrap_or_else(PoisonError::into_inner);
            if !*guard {
                guard = wake
                    .wait_timeout(guard, watchdog.poll_interval)
                    .unwrap_or_else(PoisonError::into_inner)
                    .0;
            }
            if *guard {
                return;
            }
        }
        lanes.clear();
        {
            let router = lock(&shared.router);
            // `iter` (not `find`) so supervision never perturbs MRU order.
            for lane in router.lanes.iter() {
                lanes.push(Arc::clone(lane));
            }
        }
        let now = Instant::now();
        for lane in &lanes {
            if lane.condemned.load(Ordering::Acquire) {
                continue;
            }
            let stalled = {
                let inflight = lock(&lane.inflight);
                inflight.active
                    && watchdog.is_stalled(now.saturating_duration_since(inflight.started))
            };
            if stalled {
                lane.condemn_stalled(now);
            }
        }
    }
}

/// Metrics-registry bound: once more than this many lanes have ever been
/// created, terminal (retired/quarantined) lanes' metrics fold — oldest
/// first — into the [`RetiredRollup`] until the registry is back at the
/// cap, and their dispatchers' already-finished `JoinHandle`s are reaped.
/// Live lanes are never folded, so the registry can still exceed the cap
/// transiently while more lanes than this are actually serving.
pub const RETIRED_METRICS_CAP: usize = 256;

struct Router<S> {
    lanes: Mru<Arc<Lane<S>>>,
    /// Dispatchers not yet reaped: joined opportunistically on the lane
    /// creation path once finished (so a churning workload does not
    /// accumulate one zombie `JoinHandle` per retired lane), and the
    /// remainder at shutdown.
    handles: Vec<JoinHandle<()>>,
    /// Metrics of every lane not yet compacted, in creation (`lane_id`)
    /// order — retained past eviction/retirement so
    /// [`BppsaService::metrics`] can report drained lanes. A `LaneMetrics`
    /// is a fixed set of atomics, so the registry's footprint is negligible
    /// next to a live lane's workspaces; still, it is bounded by
    /// [`RETIRED_METRICS_CAP`] — the oldest *terminal* lanes beyond the cap
    /// fold into [`Router::rollup`].
    metrics: Vec<Arc<LaneMetrics>>,
    /// Aggregate of every lane compacted out of [`Router::metrics`].
    rollup: RetiredRollup,
    open: bool,
    lanes_created: usize,
}

impl<S> Router<S> {
    /// Housekeeping on the lane-creation slow path (never on the
    /// steady-state submit path): join dispatchers that have already
    /// exited, and fold the oldest terminal (Retired/Quarantined) lanes'
    /// metrics into the rollup once the registry exceeds `cap`. Live lanes
    /// are never compacted, so the registry can transiently exceed `cap`
    /// when more than `cap` lanes are live at once.
    fn reap_and_compact(&mut self, cap: usize) {
        for handle in std::mem::take(&mut self.handles) {
            if handle.is_finished() {
                // The dispatcher already exited; join cannot block. A
                // panicked dispatcher was handled by its supervisor — the
                // unwind payload itself is of no further interest.
                let _ = handle.join();
            } else {
                self.handles.push(handle);
            }
        }
        if self.metrics.len() > cap {
            let mut rollup = self.rollup;
            let mut excess = self.metrics.len() - cap;
            self.metrics.retain(|m| {
                let terminal = matches!(m.state(), LaneState::Retired | LaneState::Quarantined);
                if excess > 0 && terminal {
                    rollup.absorb(&m.snapshot());
                    excess -= 1;
                    false
                } else {
                    true
                }
            });
            self.rollup = rollup;
        }
    }
}

struct ServiceShared<S> {
    config: ServeConfig,
    /// Shape-keyed quarantine, shared with every lane (lanes trip/clear it
    /// from dispatcher threads; the router consults it on the miss path).
    /// Its internal lock is a leaf: taken under the router lock on the
    /// miss path, never the other way around.
    book: Arc<QuarantineBook>,
    router: Mutex<Router<S>>,
    /// Submits refused with [`SubmitError::MemoryPressure`]. Laneless by
    /// nature (the refusal happens *instead of* creating a lane), so it is
    /// counted here, not in any lane's metrics, and never folds into the
    /// [`RetiredRollup`].
    memory_refused: AtomicU64,
    /// The stall watchdog's supervisor thread, spawned lazily on the first
    /// lane creation when [`ServeConfig::watchdog`] is armed; `None`
    /// forever otherwise. Joined at shutdown.
    supervisor: Mutex<Option<JoinHandle<()>>>,
    /// Stop signal for the supervisor: flag + condvar so shutdown
    /// interrupts a sleeping poll immediately instead of waiting it out.
    stop: Arc<(Mutex<bool>, Condvar)>,
}

/// A deadline micro-batching front door over [`BatchedBackward`]: accepts
/// independently submitted backward requests, routes them by chain shape to
/// per-plan lanes, and coalesces each lane's queue into wide planned-scan
/// fan-outs.
///
/// See the crate-level docs and `ARCHITECTURE.md`'s "serving layer"
/// section for the lane lifecycle, deadline policy, backpressure/shedding,
/// and shutdown story, [`Ticket`] for the client side, and
/// [`BppsaService::metrics`] for per-lane observability.
///
/// # Examples
///
/// Mixed shapes route to separate lanes and still all complete:
///
/// ```
/// use bppsa_core::{JacobianChain, ScanElement};
/// use bppsa_serve::{BppsaService, ServeConfig, Ticket};
/// use bppsa_sparse::Csr;
/// use bppsa_tensor::Vector;
/// use std::time::Duration;
///
/// let service = BppsaService::<f64>::new(ServeConfig {
///     max_batch: 4,
///     max_delay: Duration::from_micros(200),
///     ..ServeConfig::default()
/// });
///
/// // Two different chain shapes (1 layer vs 2 layers).
/// let tickets: Vec<Ticket<f64>> = (0..4).map(|_| Ticket::new()).collect();
/// for (k, ticket) in tickets.iter().enumerate() {
///     let mut chain = JacobianChain::new(Vector::from_vec(vec![1.0 + k as f64, -1.0]));
///     chain.push(ScanElement::Sparse(Csr::from_diagonal(&[2.0, 0.5])));
///     if k % 2 == 1 {
///         chain.push(ScanElement::Sparse(Csr::from_diagonal(&[1.5, 3.0])));
///     }
///     service.submit(chain, ticket).expect("accepting");
/// }
/// for ticket in &tickets {
///     ticket.wait().expect("served");
/// }
/// assert_eq!(service.lanes(), 2);
/// ```
pub struct BppsaService<S> {
    shared: Arc<ServiceShared<S>>,
}

impl<S> BppsaService<S> {
    /// A service with no lanes yet; lanes (shape key + queue immediately,
    /// plan + workspace pool + dispatcher warm-up in the background)
    /// materialize per shape on first submission.
    ///
    /// # Panics
    ///
    /// Panics if `config` has a zero `max_batch`, `queue_cap`, or
    /// `max_lanes`, or a zero shed `max_queue_depth`.
    pub fn new(config: ServeConfig) -> Self {
        config.validate();
        let max_lanes = config.max_lanes;
        Self {
            shared: Arc::new(ServiceShared {
                config,
                book: Arc::new(QuarantineBook::default()),
                router: Mutex::new(Router {
                    lanes: Mru::new(max_lanes),
                    handles: Vec::new(),
                    metrics: Vec::new(),
                    rollup: RetiredRollup::default(),
                    open: true,
                    lanes_created: 0,
                }),
                memory_refused: AtomicU64::new(0),
                supervisor: Mutex::new(None),
                stop: Arc::new((Mutex::new(false), Condvar::new())),
            }),
        }
    }

    /// A clone of the service's configuration (the service itself keeps
    /// the original — configuration is fixed at construction).
    pub fn config(&self) -> ServeConfig {
        self.shared.config.clone()
    }

    /// Number of currently live lanes (distinct shapes being served,
    /// warming lanes included).
    pub fn lanes(&self) -> usize {
        lock(&self.shared.router).lanes.len()
    }

    /// Total lanes ever created — exceeds [`BppsaService::lanes`] once MRU
    /// eviction has retired shapes (or a closed lane was re-created).
    pub fn lanes_created(&self) -> usize {
        lock(&self.shared.router).lanes_created
    }

    /// Point-in-time metrics for every lane still in the registry (evicted
    /// and retired lanes included), in creation (`lane_id`) order. The
    /// registry is bounded by [`RETIRED_METRICS_CAP`]: once it
    /// overflows, the oldest terminal lanes are folded into
    /// [`BppsaService::metrics_rollup`] and no longer appear here — so
    /// `lane_id`s are ascending but not necessarily contiguous from zero.
    /// See [`LaneMetricsSnapshot`] for the fields and their consistency
    /// caveats.
    pub fn metrics(&self) -> Vec<LaneMetricsSnapshot> {
        // Only the registry clone (a memcpy of `Arc`s) happens under the
        // router lock; the per-lane atomic loads and histogram copies run
        // lock-free, so a polling monitor never serializes request routing.
        let lanes: Vec<Arc<LaneMetrics>> = lock(&self.shared.router).metrics.clone();
        lanes.iter().map(|m| m.snapshot()).collect()
    }

    /// Aggregate counters of every lane compacted out of the
    /// [`BppsaService::metrics`] registry (see
    /// [`RETIRED_METRICS_CAP`]). Total traffic ever served is
    /// the rollup plus the sum over current [`BppsaService::metrics`].
    pub fn metrics_rollup(&self) -> RetiredRollup {
        lock(&self.shared.router).rollup
    }

    /// How many submissions were refused at the door because their shape
    /// was quarantined ([`SubmitError::Quarantined`]). Realized refusal
    /// work is one shape comparison under a leaf lock — no lane, queue, or
    /// planner is touched.
    pub fn quarantine_refusals(&self) -> u64 {
        self.shared.book.refusals()
    }

    /// Number of shapes currently tracked by the quarantine book (tripped
    /// and not yet proven healthy by a half-open probe). Cool-down expiry
    /// alone does not remove an entry — a successful probe does.
    pub fn quarantined_shapes(&self) -> usize {
        self.shared.book.len()
    }

    /// How many submissions were refused with
    /// [`SubmitError::MemoryPressure`] (memory budget exhausted with
    /// nothing evictable). Laneless — these refusals happen *instead of*
    /// creating a lane, so they appear here rather than in any lane's
    /// metrics or the retired rollup.
    pub fn memory_refusals(&self) -> u64 {
        self.shared.memory_refused.load(Ordering::Relaxed)
    }

    /// Gracefully shuts the service down: refuses new submissions, closes
    /// every lane, and joins the dispatchers — each drains its pending
    /// queue first, so **every accepted request completes** and every
    /// waiting ticket wakes. Idempotent; also runs on drop.
    pub fn shutdown(&self) {
        let (lanes, handles) = {
            let mut router = lock(&self.shared.router);
            router.open = false;
            let lanes: Vec<Arc<Lane<S>>> = router.lanes.drain().collect();
            (lanes, std::mem::take(&mut router.handles))
        };
        for lane in &lanes {
            lane.close();
        }
        for handle in handles {
            // A dispatcher can only terminate by draining; a panic would be
            // a bug, but shutdown must still reap the remaining threads.
            let _ = handle.join();
        }
        // Stop the watchdog's supervisor last: it must be able to condemn a
        // stalled lane right up until that lane's dispatcher is joined.
        let supervisor = lock(&self.shared.supervisor).take();
        if let Some(handle) = supervisor {
            let (stopped, wake) = &*self.shared.stop;
            *stopped.lock().unwrap_or_else(PoisonError::into_inner) = true;
            wake.notify_all();
            let _ = handle.join();
        }
    }
}

impl<S: Scalar> BppsaService<S> {
    /// Submits a backward request with the configured
    /// [`ServeConfig::max_delay`] budget. See
    /// [`BppsaService::submit_with_delay`].
    ///
    /// # Errors
    ///
    /// As [`BppsaService::submit_with_delay`].
    pub fn submit(
        &self,
        chain: JacobianChain<S>,
        ticket: &Ticket<S>,
    ) -> Result<(), SubmitError<S>> {
        self.submit_with_delay(chain, self.shared.config.max_delay, ticket)
    }

    /// Submits a backward request with an explicit delay budget: the
    /// request's lane flushes no later than `delay` from now, even if the
    /// batch is not full. Blocks while the lane's queue is at capacity
    /// (backpressure). Completion is observed through the `ticket`.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Shutdown`] when the service is shutting down,
    /// [`SubmitError::TicketInFlight`] when `ticket` already has a pending
    /// request, [`SubmitError::Quarantined`] or
    /// [`SubmitError::MemoryPressure`] when no lane may be created for the
    /// shape, and [`SubmitError::Shed`] or [`SubmitError::Infeasible`]
    /// when [`admit`](crate::admit) refuses the request under the
    /// configured [`ShedPolicy`]; all hand the chain back.
    ///
    /// # Panics
    ///
    /// Panics if the chain is invalid for planning (must be structurally
    /// valid and all-CSR, see [`PlannedScan::plan`]).
    pub fn submit_with_delay(
        &self,
        chain: JacobianChain<S>,
        delay: Duration,
        ticket: &Ticket<S>,
    ) -> Result<(), SubmitError<S>> {
        self.submit_inner(chain, delay, ticket, true)
            .map_err(|e| match e {
                SubmitError::Backpressure(_) | SubmitError::LaneWarming(_) => {
                    unreachable!("blocking submit queues instead of refusing room/warm-up")
                }
                other => other,
            })
    }

    /// Non-blocking [`BppsaService::submit`]: a full lane queue returns
    /// [`SubmitError::Backpressure`] (with the chain) instead of waiting,
    /// and a still-warming lane returns [`SubmitError::LaneWarming`] unless
    /// this very request is the one that created it.
    ///
    /// # Errors
    ///
    /// As [`BppsaService::submit_with_delay`], plus
    /// [`SubmitError::Backpressure`] and [`SubmitError::LaneWarming`].
    pub fn try_submit(
        &self,
        chain: JacobianChain<S>,
        ticket: &Ticket<S>,
    ) -> Result<(), SubmitError<S>> {
        self.submit_inner(chain, self.shared.config.max_delay, ticket, false)
    }

    fn submit_inner(
        &self,
        chain: JacobianChain<S>,
        delay: Duration,
        ticket: &Ticket<S>,
        block: bool,
    ) -> Result<(), SubmitError<S>> {
        let shared = ticket.shared();
        let deadline = Instant::now() + delay;
        // Refusal order: the ticket is marked in flight *before* the
        // router is touched — a TicketInFlight refusal must not create a
        // placeholder lane (or, at `max_lanes` capacity, evict a healthy
        // serving lane) for a request it then refuses — and the mark
        // precedes the enqueue, so a racing completion cannot be lost. An
        // invalid chain panics inside `route` (shape extraction on the
        // miss path); [`FlightGuard`] returns the ticket to idle across
        // that unwind.
        if !shared.begin_flight() {
            return Err(SubmitError::new(SubmitRefusal::TicketInFlight, chain));
        }
        let mut chain = chain;
        let refusal = loop {
            let routed = {
                let guard = FlightGuard(&shared);
                let routed = self.route(&chain);
                std::mem::forget(guard);
                routed
            };
            let (lane, created) = match routed {
                Ok(pair) => pair,
                Err(refusal) => break refusal,
            };
            match lane.push(chain, deadline, delay, Arc::clone(&shared), block, created) {
                Ok(()) => return Ok(()),
                // Lane evicted between routing and push: re-route (the lane
                // is re-created if its shape is still wanted).
                Err((c, None)) => chain = c,
                Err((c, Some(refusal))) => {
                    chain = c;
                    break refusal;
                }
            }
        };
        shared.abort_flight();
        Err(SubmitError::new(refusal, chain))
    }

    /// Finds (MRU) or creates the lane whose shape key matches `chain`;
    /// refuses when the router is closed or the shape is quarantined, and
    /// the boolean reports whether this call created the lane (its request
    /// seeds the warm-up).
    ///
    /// Creation inserts only a **placeholder** — shape key, bounded queue,
    /// metrics — so the router lock is held for O(layers) pattern clones,
    /// never for planning: the symbolic planner and workspace pool are
    /// built by the new lane's dispatcher thread ([`warm_up`]), and
    /// submitters of other shapes route concurrently.
    fn route(&self, chain: &JacobianChain<S>) -> Result<(Arc<Lane<S>>, bool), SubmitRefusal> {
        let mut router = lock(&self.shared.router);
        if !router.open {
            return Err(SubmitRefusal::Shutdown);
        }
        // A lane whose warm-up failed (plan panic), whose breaker tripped,
        // or whose dispatcher died closed itself but could not remove
        // itself from the router. Evicted/shut-down lanes leave the store
        // *before* they close, so an in-store terminal lane is exactly one
        // of those failure cases: drop it here, or matching requests would
        // ping-pong between its Closed refusal and this router forever.
        // Allocation-free when nothing matches (the overwhelmingly common
        // case).
        drop(router.lanes.extract(|lane| {
            matches!(
                lane.metrics.state(),
                LaneState::Draining | LaneState::Retired | LaneState::Quarantined
            )
        }));
        if let Some(lane) = router.lanes.find(|lane| lane.shape.matches(chain)) {
            return Ok((Arc::clone(lane), false));
        }
        // Miss: extract the shape key *before* touching the MRU store — a
        // panic on an invalid chain (this is where submits validate; a hit
        // proves validity by construction) must not evict, and orphan with
        // a forever-parked dispatcher, an existing lane. The submitter's
        // `FlightGuard` returns its ticket to idle across the unwind.
        let shape = LaneShape::of(chain);
        // Quarantine gate, also only on the miss path: a hit proves the
        // shape is not quarantined (a trip marks its lane Quarantined, and
        // the purge above removed any such lane before the find). A
        // tripped shape is refused outright until its cool-down elapses,
        // then exactly one request is admitted as the half-open probe.
        let probe = match self.shared.book.admit(chain, Instant::now()) {
            Admission::Refuse => return Err(SubmitRefusal::Quarantined),
            Admission::Probe => true,
            Admission::Clear => false,
        };
        // Lane creation is the slow path already — amortize supervision
        // housekeeping here (reap exited dispatchers, bound the metrics
        // registry) instead of on the per-request fast path.
        router.reap_and_compact(RETIRED_METRICS_CAP);
        // Memory-budget admission: with the budget exhausted, a new lane's
        // warm-up could not prewarm a single workspace — it would park on
        // the budget while holding the shape's traffic. Evict the
        // least-recently-used lane instead (its drain returns its pool's
        // reservation), and refuse outright only when there is nothing to
        // evict: the budget is consumed outside this service's lanes, and
        // admitting the shape would just move the stall into warm-up.
        let mut budget_evicted = None;
        if self
            .shared
            .config
            .memory
            .as_ref()
            .is_some_and(|budget| budget.exhausted())
        {
            match router.lanes.pop_lru(|_| true) {
                Some(coldest) => budget_evicted = Some(coldest),
                None => {
                    if probe {
                        // Hand the half-open slot back: this refusal said
                        // nothing about the shape's health.
                        self.shared.book.abort_probe(&shape);
                    }
                    self.shared.memory_refused.fetch_add(1, Ordering::Relaxed);
                    return Err(SubmitRefusal::MemoryPressure);
                }
            }
        }
        let config = self.shared.config.clone();
        let id = router.lanes_created;
        let lane = Arc::new(Lane::placeholder(
            shape,
            &config,
            id,
            probe,
            Arc::clone(&self.shared.book),
        ));
        let (_, inserted, evicted) = router
            .lanes
            .find_or_insert_with_evicted(|_| false, || Arc::clone(&lane));
        debug_assert!(inserted, "fresh lane always inserts");
        router.lanes_created += 1;
        router.metrics.push(Arc::clone(&lane.metrics));
        {
            let worker = Arc::clone(&lane);
            let handle = std::thread::Builder::new()
                .name(format!("bppsa-serve-lane-{id}"))
                .spawn(move || dispatcher_loop(&worker, &config))
                .expect("spawn serve lane dispatcher");
            router.handles.push(handle);
        }
        drop(router);
        self.ensure_supervisor();
        if let Some(evicted) = evicted {
            // Outside the router lock: the evicted lane drains its pending
            // requests in the background and its dispatcher retires.
            evicted.close();
        }
        if let Some(evicted) = budget_evicted {
            evicted.close();
        }
        Ok((lane, true))
    }

    /// Spawns the watchdog's supervisor thread on the first lane creation,
    /// if (and only if) a watchdog is armed. Lane creation is already the
    /// slow path, and lazy spawning keeps a never-submitted-to service
    /// thread-free.
    fn ensure_supervisor(&self) {
        let Some(watchdog) = self.shared.config.watchdog else {
            return;
        };
        let mut slot = lock(&self.shared.supervisor);
        if slot.is_some() {
            return;
        }
        if *self
            .shared
            .stop
            .0
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
        {
            return; // shut down already; never resurrect the thread
        }
        let shared = Arc::clone(&self.shared);
        let handle = std::thread::Builder::new()
            .name("bppsa-serve-supervisor".into())
            .spawn(move || supervisor_loop(&shared, watchdog))
            .expect("spawn serve watchdog supervisor");
        *slot = Some(handle);
    }

    /// [`BppsaService::submit`] wrapped in the configured
    /// [`ServeConfig::retry`] policy: transient refusals
    /// ([`SubmitRefusal::is_transient`]) are retried with exponential
    /// backoff until the policy's budget is spent, then the last refusal is
    /// returned. [`SubmitError::Shutdown`] and
    /// [`SubmitError::TicketInFlight`] return immediately.
    ///
    /// # Errors
    ///
    /// As [`BppsaService::submit`], once the retry budget is exhausted.
    pub fn submit_retrying(
        &self,
        chain: JacobianChain<S>,
        ticket: &Ticket<S>,
    ) -> Result<(), SubmitError<S>> {
        self.submit_retrying_with_delay(chain, self.shared.config.max_delay, ticket)
    }

    /// [`BppsaService::submit_with_delay`] wrapped in the configured
    /// [`ServeConfig::retry`] policy; see [`BppsaService::submit_retrying`].
    ///
    /// # Errors
    ///
    /// As [`BppsaService::submit_with_delay`], once the retry budget is
    /// exhausted.
    pub fn submit_retrying_with_delay(
        &self,
        chain: JacobianChain<S>,
        delay: Duration,
        ticket: &Ticket<S>,
    ) -> Result<(), SubmitError<S>> {
        let policy = self.shared.config.retry;
        let start = Instant::now();
        let mut attempt: u32 = 0;
        let mut chain = chain;
        loop {
            match self.submit_with_delay(chain, delay, ticket) {
                Ok(()) => return Ok(()),
                Err(e) if !e.kind().is_transient() => return Err(e),
                Err(e) => {
                    let elapsed = start.elapsed();
                    if elapsed >= policy.budget {
                        return Err(e);
                    }
                    // Never sleep past the budget: the last wait is clipped
                    // so retry exhaustion is observed promptly.
                    let backoff = policy.backoff_for(attempt).min(policy.budget - elapsed);
                    if !backoff.is_zero() {
                        std::thread::sleep(backoff);
                    }
                    chain = e.into_chain();
                    attempt += 1;
                }
            }
        }
    }
}

impl<S> Drop for BppsaService<S> {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl<S> std::fmt::Debug for BppsaService<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let router = lock(&self.shared.router);
        f.debug_struct("BppsaService")
            .field("config", &self.shared.config)
            .field("lanes", &router.lanes.len())
            .field("lanes_created", &router.lanes_created)
            .field("open", &router.open)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ServeError;
    use bppsa_core::{bppsa_backward, KernelCounts, ScanElement};
    use bppsa_sparse::Csr;
    use bppsa_tensor::init::{seeded_rng, uniform_vector};
    use bppsa_tensor::{Matrix, Vector};
    use rand::Rng;

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

    /// Same sparsity patterns as `template` (so the request routes to the
    /// template's lane), fresh values in `[-1, 1)`, in the scalar type `S`.
    fn revalue<S: Scalar>(template: &JacobianChain<f64>, seed: u64) -> JacobianChain<S> {
        let mut rng = seeded_rng(seed);
        let mut chain = JacobianChain::new(uniform_vector(&mut rng, template.seed().len(), 1.0));
        for jt in template.jacobians() {
            let ScanElement::Sparse(m) = jt else {
                unreachable!()
            };
            let values = (0..m.nnz())
                .map(|_| S::from_f64(rng.random_range(-1.0..1.0)))
                .collect();
            chain.push(ScanElement::Sparse(Csr::from_pattern_and_values(
                m.pattern(),
                values,
            )));
        }
        chain
    }

    fn quick_config() -> ServeConfig {
        ServeConfig {
            max_batch: 4,
            max_delay: Duration::from_micros(500),
            queue_cap: 16,
            max_lanes: 4,
            workspaces_per_lane: 0,
            shed: ShedPolicy::disabled(),
            ..ServeConfig::default()
        }
    }

    #[test]
    fn single_request_flushes_by_deadline_without_further_traffic() {
        // max_batch is 4 but only one request arrives: the deadline policy
        // alone must flush it — no co-traffic, no nudge.
        let service = BppsaService::<f64>::new(quick_config());
        let chain = sparse_chain(6, 8, 1);
        let reference = bppsa_backward(&chain, BppsaOptions::serial());
        let ticket = Ticket::new();
        service.submit(chain, &ticket).expect("accepting");
        ticket.wait().expect("deadline flush completes the request");
        ticket.with_result(|r| assert!(r.max_abs_diff(&reference) < 1e-12));
        assert_eq!(service.lanes(), 1);
    }

    /// Serves eight revalued copies of `template` through one lane and
    /// checks each against a serial execution of the same plan. Returns
    /// that plan's kernel counts.
    fn assert_coalesced_batch_matches_serial<S: Scalar>(
        template: &JacobianChain<f64>,
    ) -> KernelCounts {
        let service = BppsaService::<S>::new(quick_config());
        let chains: Vec<JacobianChain<S>> = (0..8).map(|k| revalue(template, 100 + k)).collect();
        let plan = PlannedScan::plan(&chains[0], BppsaOptions::serial());
        let references: Vec<Vec<Vec<S>>> = chains
            .iter()
            .map(|chain| {
                let mut ws = plan.workspace::<S>();
                plan.execute_with(chain, &mut ws)
                    .grads()
                    .iter()
                    .map(|g| g.as_slice().to_vec())
                    .collect()
            })
            .collect();
        let tickets: Vec<Ticket<S>> = chains.iter().map(|_| Ticket::new()).collect();
        for (chain, ticket) in chains.into_iter().zip(&tickets) {
            service.submit(chain, ticket).expect("accepting");
        }
        for (k, ticket) in tickets.iter().enumerate() {
            ticket.wait().expect("served");
            ticket.with_result(|r| {
                for (g, expect) in r.grads().iter().zip(&references[k]) {
                    // Same compiled program, same rounding: exact equality.
                    assert_eq!(g.as_slice(), expect.as_slice());
                }
            });
        }
        assert_eq!(service.lanes(), 1, "one shape, one lane");
        plan.kernel_counts()
    }

    #[test]
    fn coalesced_batch_matches_serial_bit_for_bit() {
        // A 40%-dense chain, and a full-pattern chain whose products all
        // run the dense kernel, on both scalar types: the f32 tiers run
        // inside a lane too.
        let sparse = sparse_chain(10, 8, 2);
        let mut full = JacobianChain::new(Vector::zeros(20));
        for _ in 0..12 {
            let pattern = Csr::from_dense_pattern(&Matrix::<f64>::zeros(20, 20));
            full.push(ScanElement::Sparse(pattern));
        }
        assert_coalesced_batch_matches_serial::<f64>(&sparse);
        assert_coalesced_batch_matches_serial::<f32>(&sparse);
        for counts in [
            assert_coalesced_batch_matches_serial::<f64>(&full),
            assert_coalesced_batch_matches_serial::<f32>(&full),
        ] {
            assert!(counts.total() > 0);
            assert_eq!(counts.dense, counts.total(), "{counts:?}");
        }
    }

    #[test]
    fn short_budget_request_flushes_within_its_own_deadline() {
        // Regression test: the dispatcher used to arm its timer on the
        // *front* request's deadline only, so a short-budget request queued
        // behind a long-budget one waited out the long budget. The flush
        // timer must follow the earliest pending deadline.
        let service = BppsaService::<f64>::new(ServeConfig {
            max_batch: 8, // never reached: the deadline must do the work
            max_delay: Duration::from_millis(400),
            queue_cap: 16,
            max_lanes: 2,
            workspaces_per_lane: 0,
            shed: ShedPolicy::disabled(),
            ..ServeConfig::default()
        });
        let template = sparse_chain(5, 6, 45);
        let long = Ticket::new();
        service
            .submit_with_delay(revalue(&template, 46), Duration::from_millis(400), &long)
            .expect("accepting");
        let short = Ticket::new();
        let t0 = Instant::now();
        service
            .submit_with_delay(revalue(&template, 47), Duration::from_millis(2), &short)
            .expect("accepting");
        short.wait().expect("served");
        let waited = t0.elapsed();
        assert!(
            waited < Duration::from_millis(200),
            "short-budget request waited {waited:?} — the long co-request's budget leaked onto it"
        );
        // The whole prefix flushes together, so the long request rides along.
        long.wait().expect("served in the same flush");
    }

    #[test]
    fn invalid_chain_panic_does_not_orphan_existing_lanes() {
        // Regression test: at lane capacity, a panic while admitting a new
        // shape used to strike *inside* the MRU make-closure, after the LRU
        // lane had already been evicted — leaking a never-closed lane whose
        // dispatcher parked forever and hung shutdown. Shape extraction now
        // happens before any eviction, and the submitting ticket stays
        // idle.
        let mut config = quick_config();
        config.max_lanes = 1;
        let service = BppsaService::<f64>::new(config);
        let template = sparse_chain(4, 6, 48);
        let ticket = Ticket::new();
        service
            .submit(revalue(&template, 49), &ticket)
            .expect("accepting");
        ticket.wait().expect("served");

        // An un-plannable chain (dense element) panics inside submit.
        let mut bad = JacobianChain::new(bppsa_tensor::Vector::from_vec(vec![1.0, 2.0]));
        bad.push(ScanElement::Dense(bppsa_tensor::Matrix::identity(2)));
        let bad_ticket = Ticket::new();
        let panicked = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let _ = service.submit(bad, &bad_ticket);
        }));
        assert!(panicked.is_err(), "dense chain must be rejected loudly");

        // The existing lane is intact, the panicking ticket reusable, and
        // shutdown (via drop at the end of this test) must not hang.
        service
            .submit(revalue(&template, 50), &bad_ticket)
            .expect("ticket left idle by the failed submit");
        bad_ticket.wait().expect("served on the surviving lane");
        assert_eq!(service.lanes(), 1);
        assert_eq!(service.lanes_created(), 1, "no lane was evicted or leaked");
        service.shutdown();
    }

    #[test]
    fn mru_eviction_drains_and_recreates_lanes() {
        let mut config = quick_config();
        config.max_lanes = 2;
        let service = BppsaService::<f64>::new(config);
        // Three shapes through a 2-lane router: the first lane is evicted…
        for (n, seed) in [(3usize, 10u64), (5, 11), (7, 12)] {
            let ticket = Ticket::new();
            service
                .submit(sparse_chain(n, 6, seed), &ticket)
                .expect("accepting");
            ticket.wait().expect("served");
        }
        assert_eq!(service.lanes(), 2);
        assert_eq!(service.lanes_created(), 3);
        // …and transparently re-created when its shape returns.
        let ticket = Ticket::new();
        service
            .submit(sparse_chain(3, 6, 13), &ticket)
            .expect("accepting");
        ticket.wait().expect("served");
        assert_eq!(service.lanes(), 2);
        assert_eq!(service.lanes_created(), 4);
        // The metrics registry observed all four lanes, in creation order.
        let snaps = service.metrics();
        assert_eq!(snaps.len(), 4);
        for (k, snap) in snaps.iter().enumerate() {
            assert_eq!(snap.lane_id, k);
            assert!(snap.submitted >= 1);
        }
        // Eviction only closes the lane; its dispatcher drains and retires
        // it asynchronously, so wait (bounded) for the retirement to land.
        let deadline = Instant::now() + Duration::from_secs(10);
        while service.metrics()[0].state != LaneState::Retired {
            assert!(
                Instant::now() < deadline,
                "evicted lane never drained and retired"
            );
            std::thread::yield_now();
        }
    }

    #[test]
    fn shutdown_refuses_new_work_and_returns_the_chain() {
        let service = BppsaService::<f64>::new(quick_config());
        let ticket = Ticket::new();
        service
            .submit(sparse_chain(4, 6, 20), &ticket)
            .expect("accepting");
        service.shutdown();
        // The accepted request completed during the drain.
        ticket.wait().expect("drained before retiring");
        let refused = service.submit(sparse_chain(4, 6, 21), &Ticket::new());
        let chain = match refused {
            Err(SubmitError::Shutdown(chain)) => chain,
            other => panic!("expected Shutdown, got {other:?}"),
        };
        assert_eq!(chain.num_layers(), 4, "chain handed back intact");
    }

    #[test]
    fn ticket_in_flight_is_refused() {
        let mut config = quick_config();
        config.max_delay = Duration::from_millis(50); // keep it pending
        let service = BppsaService::<f64>::new(config);
        let ticket = Ticket::new();
        service
            .submit(sparse_chain(4, 6, 30), &ticket)
            .expect("accepting");
        let second = service.submit(sparse_chain(4, 6, 31), &ticket);
        assert!(matches!(second, Err(SubmitError::TicketInFlight(_))));
        ticket.wait().expect("first request still completes");
    }

    #[test]
    fn try_submit_backpressure_hands_the_chain_back() {
        // A lane whose dispatcher is stuck behind a long deadline with
        // queue_cap 1: the second try_submit must refuse with the chain.
        let config = ServeConfig {
            max_batch: 8,
            max_delay: Duration::from_millis(200),
            queue_cap: 1,
            max_lanes: 2,
            workspaces_per_lane: 1,
            shed: ShedPolicy::disabled(),
            ..ServeConfig::default()
        };
        let service = BppsaService::<f64>::new(config);
        let template = sparse_chain(4, 6, 40);
        let t1 = Ticket::new();
        service
            .submit(revalue(&template, 41), &t1)
            .expect("accepting");
        // The lane may still be warming; try_submit then refuses with
        // LaneWarming instead — wait until it is live to isolate the
        // backpressure refusal.
        while service.metrics()[0].state == LaneState::Warming {
            std::thread::yield_now();
        }
        let t2 = Ticket::new();
        let refused = service.try_submit(revalue(&template, 42), &t2);
        match refused {
            Err(SubmitError::Backpressure(_)) => {}
            // The queued request can flush between the state poll and the
            // try_submit, leaving room; then the submit legitimately lands.
            Ok(()) => {
                t2.wait().expect("served");
                let _ = t2.take_chain();
            }
            other => panic!("expected Backpressure or Ok, got {other:?}"),
        }
        t1.wait().expect("queued request still served");
        // The refused ticket is reusable immediately.
        service
            .submit(revalue(&template, 43), &t2)
            .expect("accepting after refusal");
        t2.wait().expect("served");
    }

    #[test]
    fn try_submit_while_warming_is_refused_with_lane_warming() {
        // A heavy-to-plan shape holds its lane in Warming long enough for a
        // second, non-creating try_submit to observe the warming refusal.
        let service = BppsaService::<f64>::new(ServeConfig {
            max_batch: 8,
            max_delay: Duration::from_millis(100),
            queue_cap: 16,
            max_lanes: 2,
            workspaces_per_lane: 1,
            shed: ShedPolicy::disabled(),
            ..ServeConfig::default()
        });
        let template = sparse_chain(60, 16, 70);
        let creator = Ticket::new();
        service
            .submit(revalue(&template, 71), &creator)
            .expect("the creating request seeds the lane");
        let follower = Ticket::new();
        let refused = service.try_submit(revalue(&template, 72), &follower);
        match refused {
            Err(SubmitError::LaneWarming(chain)) => {
                assert_eq!(chain.num_layers(), 60, "chain handed back intact");
                // The refusal left the ticket idle and the lane serving.
                service
                    .submit(chain, &follower)
                    .expect("blocking submit queues behind the warm-up");
                follower.wait().expect("served once live");
            }
            Ok(()) => {
                // Raced a very fast warm-up — then it must simply serve.
                follower.wait().expect("served");
            }
            other => panic!("expected LaneWarming or Ok, got {other:?}"),
        }
        creator.wait().expect("creator served");
    }

    #[test]
    fn shed_policy_refuses_on_queue_depth() {
        // queue_cap 8 but shed threshold 1: once one request is queued, the
        // next submit is shed instead of queueing or blocking.
        let service = BppsaService::<f64>::new(ServeConfig {
            max_batch: 8,
            max_delay: Duration::from_millis(200),
            queue_cap: 8,
            max_lanes: 2,
            workspaces_per_lane: 1,
            shed: ShedPolicy {
                max_queue_depth: Some(1),
                min_warming_delay: None,
                feasibility: None,
            },
            ..ServeConfig::default()
        });
        let template = sparse_chain(4, 6, 80);
        let t1 = Ticket::new();
        service
            .submit(revalue(&template, 81), &t1)
            .expect("first request queues");
        let t2 = Ticket::new();
        let refused = service.submit(revalue(&template, 82), &t2);
        match refused {
            Err(SubmitError::Shed(chain)) => {
                assert_eq!(chain.num_layers(), 4, "chain handed back intact");
                let snap = &service.metrics()[0];
                assert!(snap.shed >= 1, "shed counter records the refusal");
                // Once the queued request drained, the shed ticket is
                // reusable and the depth threshold no longer trips.
                t1.wait().expect("first request still served");
                service
                    .submit(chain, &t2)
                    .expect("accepting once the queue drained");
                t2.wait().expect("served");
            }
            // The first request can flush before the second submit reads
            // the queue depth; then nothing is shed.
            Ok(()) => {
                t1.wait().expect("first request still served");
                t2.wait().expect("served");
            }
            other => panic!("expected Shed or Ok, got {other:?}"),
        }
    }

    #[test]
    fn panicking_request_poisons_only_its_own_batch() {
        // End-to-end panic containment across *concurrently flushing*
        // lanes, directly exercising the worker pool's generation-scoped
        // poisoning: lane A's batch carries one request that panics inside
        // `PlannedScan::execute_with` (its chain matches the lane plan's
        // shapes but not its length — reachable here by pushing past the
        // router on a hand-built lane), while lane B flushes clean batches
        // the whole time. The panicking request must fail, its innocent
        // co-members and every lane-B request must succeed.
        let config = quick_config();
        let good_template = sparse_chain(6, 8, 50);
        let lane_a = Arc::new(Lane::<f64>::placeholder(
            LaneShape::of(&good_template),
            &config,
            0,
            false,
            Arc::new(QuarantineBook::default()),
        ));
        // Wrong *length* for lane A's plan: `execute_with`'s chain check
        // panics deterministically inside the batch job. (Unreachable via
        // `submit` — routing always matches — hence the hand-built lane.)
        let bad_chain = sparse_chain(9, 8, 51);
        let service_b = BppsaService::<f64>::new(quick_config());
        let b_template = sparse_chain(5, 6, 52);

        // All assertions run *after* the dispatcher is retired, so a
        // failure reports instead of hanging the scope join.
        let (good_outcomes, bad_outcome, bad_layers, after_outcome, b_outcomes) =
            std::thread::scope(|s| {
                let lane = Arc::clone(&lane_a);
                let dispatcher = s.spawn(move || dispatcher_loop(&lane, &config));

                // Lane A: 3 good requests + 1 poisoned, one coalesced
                // batch. The first push seeds the warm-up, so the lane's
                // plan is built from a *good* chain.
                let good_tickets: Vec<Ticket<f64>> = (0..3).map(|_| Ticket::new()).collect();
                let bad_ticket = Ticket::new();
                let delay = Duration::from_millis(5);
                let deadline = Instant::now() + delay;
                for (k, ticket) in good_tickets.iter().enumerate() {
                    assert!(ticket.shared().begin_flight());
                    lane_a
                        .push(
                            revalue(&good_template, 60 + k as u64),
                            deadline,
                            delay,
                            ticket.shared(),
                            true,
                            k == 0,
                        )
                        .unwrap_or_else(|_| panic!("open lane refused"));
                }
                assert!(bad_ticket.shared().begin_flight());
                lane_a
                    .push(bad_chain, deadline, delay, bad_ticket.shared(), true, false)
                    .unwrap_or_else(|_| panic!("open lane refused"));

                // Lane B (separate service): concurrent clean traffic racing
                // lane A's poisoned flush on the shared worker pool.
                let b_outcomes: Vec<Result<(), ServeError>> = (0..20)
                    .map(|round| {
                        let ticket = Ticket::new();
                        service_b
                            .submit(revalue(&b_template, 80 + round), &ticket)
                            .expect("accepting");
                        ticket.wait()
                    })
                    .collect();

                let good_outcomes: Vec<Result<(), ServeError>> = good_tickets
                    .iter()
                    .map(|t| {
                        let outcome = t.wait();
                        if outcome.is_ok() {
                            t.with_result(|r| assert_eq!(r.grads().len(), 6));
                        }
                        outcome
                    })
                    .collect();
                let bad_outcome = bad_ticket.wait();
                let bad_layers = bad_ticket.take_chain().num_layers();

                // The lane survives its poisoned batch: a fresh request
                // flushes cleanly before the dispatcher retires.
                let after = Ticket::new();
                assert!(after.shared().begin_flight());
                let after_delay = Duration::from_millis(2);
                lane_a
                    .push(
                        revalue(&good_template, 70),
                        Instant::now() + after_delay,
                        after_delay,
                        after.shared(),
                        true,
                        false,
                    )
                    .unwrap_or_else(|_| panic!("open lane refused"));
                let after_outcome = after.wait();

                lane_a.close();
                dispatcher.join().expect("dispatcher retired cleanly");
                (
                    good_outcomes,
                    bad_outcome,
                    bad_layers,
                    after_outcome,
                    b_outcomes,
                )
            });

        for (k, outcome) in good_outcomes.iter().enumerate() {
            assert_eq!(
                *outcome,
                Ok(()),
                "innocent co-member {k} must still complete"
            );
        }
        assert_eq!(bad_outcome, Err(ServeError::BatchPanicked));
        assert_eq!(bad_layers, 9, "the panicking request's chain comes back");
        assert_eq!(after_outcome, Ok(()), "lane survives its poisoned batch");
        for (round, outcome) in b_outcomes.iter().enumerate() {
            assert_eq!(
                *outcome,
                Ok(()),
                "concurrent clean lane caught a foreign panic (round {round})"
            );
        }
    }

    #[test]
    fn zero_retry_budget_returns_the_first_refusal_without_spinning() {
        // RetryPolicy::none() (budget == Duration::ZERO): a transient
        // refusal must come back after exactly one attempt — no backoff
        // sleep, no spin loop — because any elapsed time satisfies
        // `elapsed >= budget`. A shed-armed lane with one parked request
        // makes the refusal deterministic.
        let mut config = quick_config();
        config.max_delay = Duration::from_secs(60);
        config.max_batch = 8;
        config.retry = RetryPolicy::none();
        config.shed = ShedPolicy {
            max_queue_depth: Some(1),
            min_warming_delay: None,
            feasibility: None,
        };
        let service = BppsaService::<f64>::new(config);
        let template = sparse_chain(4, 6, 120);
        let parked = Ticket::new();
        service
            .submit(revalue(&template, 121), &parked)
            .expect("first request parks under the minute budget");

        let doomed = Ticket::new();
        let start = Instant::now();
        let refused = service.submit_retrying(revalue(&template, 122), &doomed);
        let elapsed = start.elapsed();
        let Err(SubmitError::Shed(chain)) = refused else {
            panic!("expected a shed refusal, got {refused:?}");
        };
        assert_eq!(chain.num_layers(), template.num_layers(), "chain returned");
        assert!(
            elapsed < Duration::from_secs(5),
            "zero budget must not spin through backoff sleeps: {elapsed:?}"
        );
        service.shutdown();
        parked.wait().expect("parked request drains on shutdown");
    }

    #[test]
    fn failed_warmup_lane_is_purged_and_recreated() {
        // Regression: a lane whose warm-up failed (plan panic) closes
        // itself but cannot remove itself from the router store — submits
        // of its shape used to ping-pong forever between the closed lane's
        // refusal and the router. `route()` must purge in-store
        // Draining/Retired lanes and re-create the shape.
        let service = BppsaService::<f64>::new(quick_config());
        let template = sparse_chain(4, 6, 90);
        // Fabricate the failure state: a placeholder lane of the
        // template's shape, closed before it ever planned (exactly what
        // `warm_up`'s panic branch leaves behind), force-inserted into the
        // router.
        let dead = Arc::new(Lane::<f64>::placeholder(
            LaneShape::of(&template),
            &quick_config(),
            99,
            false,
            Arc::new(QuarantineBook::default()),
        ));
        dead.close();
        {
            let mut router = lock(&service.shared.router);
            let (_, inserted, _) = router
                .lanes
                .find_or_insert_with_evicted(|_| false, || Arc::clone(&dead));
            assert!(inserted);
        }
        let ticket = Ticket::new();
        service
            .submit(revalue(&template, 91), &ticket)
            .expect("route must purge the dead lane and re-create the shape");
        ticket.wait().expect("served by the re-created lane");
        assert_eq!(service.lanes(), 1, "dead lane purged from the router");
    }

    #[test]
    fn ticket_in_flight_refusal_never_touches_the_router() {
        // Regression: begin_flight used to be checked only *after* route()
        // had created a placeholder lane, so a doomed submit (ticket
        // already in flight) spawned a dispatcher for a lane nothing would
        // seed — and, at max_lanes capacity, evicted a healthy serving
        // lane to make room for it.
        let mut config = quick_config();
        config.max_delay = Duration::from_millis(100); // keep `busy` pending
        config.max_lanes = 1; // an erroneous lane creation would evict
        let service = BppsaService::<f64>::new(config);
        let busy = Ticket::new();
        service
            .submit(sparse_chain(3, 5, 95), &busy)
            .expect("accepting");
        let new_shape = sparse_chain(6, 7, 96);
        let refused = service.try_submit(revalue(&new_shape, 97), &busy);
        assert!(matches!(refused, Err(SubmitError::TicketInFlight(_))));
        assert_eq!(
            service.lanes_created(),
            1,
            "a refused submit must not create a lane"
        );
        busy.wait().expect("live lane unaffected by the refusal");
        // The shape (and the ticket) work fine once legitimately submitted.
        service
            .submit(revalue(&new_shape, 98), &busy)
            .expect("accepting after refusal");
        busy.wait().expect("served");
    }

    #[test]
    fn empty_warming_lane_accepts_any_request_as_seed() {
        // Defense-in-depth at the push layer: should an empty Warming lane
        // ever exist (no request queued, dispatcher parked waiting for a
        // template), a non-seed non-blocking push must be accepted as the
        // warm-up's seed — refusing it with Warming would starve the lane
        // forever, since the dispatcher plans from the first queued chain,
        // whoever's it is.
        let config = quick_config();
        let template = sparse_chain(4, 6, 99);
        let lane = Lane::<f64>::placeholder(
            LaneShape::of(&template),
            &config,
            0,
            false,
            Arc::new(QuarantineBook::default()),
        );
        let seed_delay = Duration::from_millis(50);
        let first = Ticket::new();
        assert!(first.shared().begin_flight());
        lane.push(
            revalue(&template, 100),
            Instant::now() + seed_delay,
            seed_delay,
            first.shared(),
            false, // non-blocking
            false, // NOT the creator — still must seed the empty lane
        )
        .unwrap_or_else(|_| panic!("empty warming lane must accept its seeding request"));
        // With the seed queued, further non-blocking pushes see the normal
        // warming refusal.
        let second = Ticket::new();
        assert!(second.shared().begin_flight());
        let refused = lane.push(
            revalue(&template, 101),
            Instant::now() + seed_delay,
            seed_delay,
            second.shared(),
            false,
            false,
        );
        assert!(
            matches!(refused, Err((_, Some(SubmitRefusal::LaneWarming)))),
            "seeded warming lane refuses further non-blocking pushes"
        );
        // No dispatcher was spawned for this hand-built lane; complete the
        // queued ticket manually so nothing dangles.
        lane.close();
        let mut q = lock(&lane.queue);
        while let Some(req) = q.pending.pop_front() {
            req.ticket.finish(req.chain, None);
        }
        drop(q);
        assert_eq!(first.wait(), Ok(()));
    }

    #[test]
    #[should_panic(expected = "max_batch must be >= 1")]
    fn zero_max_batch_is_rejected() {
        let mut config = quick_config();
        config.max_batch = 0;
        let _ = BppsaService::<f64>::new(config);
    }

    #[test]
    #[should_panic(expected = "max_queue_depth must be >= 1")]
    fn zero_shed_depth_is_rejected() {
        let mut config = quick_config();
        config.shed.max_queue_depth = Some(0);
        let _ = BppsaService::<f64>::new(config);
    }
}
